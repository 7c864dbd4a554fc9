// Shared helpers for the figure-reproduction benches.
#pragma once

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "exp/aggregator.h"
#include "exp/reporter.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "obs/counters.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/config.h"
#include "util/time_series.h"

namespace dcs::bench {

/// Keys every bench understands: the shared data-center knobs plus the
/// sweep-runner knobs (threads=<n>, csv=<dir>, perf=<dir>, checkpoint=<dir>
/// for crash-safe resume files, shard=<i>/<N> to run one contiguous slice
/// of every grid) and the observability knobs (trace=<dir> streams the
/// trace to <dir>/<name>_trace.jsonl, telemetry=<path> streams it to
/// <path> — the one telemetry-schema stream of obs/telemetry.h either way,
/// so the two are mutually exclusive; metrics=<dir> for CSV/JSON/
/// Prometheus snapshots).
inline constexpr std::string_view kCommonKeys[] = {
    "pdus", "dc_headroom", "pue", "csv", "perf", "threads", "trace",
    "metrics", "checkpoint", "shard", "telemetry", "decisions"};

/// Default recorder channels bridged into Perfetto counter tracks by the
/// traced benches: physical state (state of charge, breaker trip margin,
/// room temperature, chiller draw) next to the control trajectory (degree).
inline const std::vector<std::string> kDefaultCounterChannels = {
    "ups_soc",  "tes_soc", "cb_trip_margin_s",
    "room_c",   "degree",  "cooling_mw"};

/// Parses "key=value" command-line arguments. Malformed tokens and keys
/// outside the common set plus `extra_allowed` abort with a clear error
/// instead of being silently ignored.
inline Config parse_args(int argc, char** argv,
                         std::initializer_list<std::string_view> extra_allowed = {}) {
  try {
    const Config args = Config::from_args(
        std::span<const char* const>(argv + 1, static_cast<std::size_t>(argc - 1)));
    std::vector<std::string_view> allowed(std::begin(kCommonKeys),
                                          std::end(kCommonKeys));
    allowed.insert(allowed.end(), extra_allowed.begin(), extra_allowed.end());
    args.require_known(allowed);
    // Both name the one trace stream; under dispatch_sweep a shared
    // trace=<dir> would also make every shard overwrite the same file.
    if (!args.get_string("trace", "").empty() &&
        !args.get_string("telemetry", "").empty()) {
      throw std::invalid_argument(
          "trace= and telemetry= name the same trace stream; give one");
    }
    return args;
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": error: " << e.what()
              << "\nusage: " << argv[0] << " [key=value ...]\n";
    std::exit(2);
  }
}

namespace detail {
inline std::unique_ptr<obs::TelemetrySink>& telemetry_slot() {
  static std::unique_ptr<obs::TelemetrySink> slot;
  return slot;
}
}  // namespace detail

/// The process's trace stream, or null when neither trace= nor telemetry=
/// was given (telemetry_setup not called / no-op).
inline obs::TelemetrySink* telemetry_sink() {
  return detail::telemetry_slot().get();
}

/// Opens the process's one trace stream: `<dir>/<name>_trace.jsonl` under
/// trace=<dir>, or `<path>` under telemetry=<path> (appended by
/// dispatch_sweep --telemetry). Every traced bench hands this sink to its
/// Tracer, so events stream to disk with bounded memory. Turns the
/// wall-clock profiler on so the stream carries wall spans. Exits 2 when
/// the stream cannot be opened. Call once near the top of main(), right
/// after obs_setup.
inline void telemetry_setup(const Config& args, const std::string& name) {
  std::string path = args.get_string("telemetry", "");
  const std::string trace_dir = args.get_string("trace", "");
  if (!trace_dir.empty()) path = trace_dir + "/" + name + "_trace.jsonl";
  if (path.empty()) return;
  obs::TelemetryOptions options;
  options.name = name;
  options.shard = args.get_string("shard", "");
  detail::telemetry_slot() =
      std::make_unique<obs::TelemetrySink>(path, options);
  if (!telemetry_sink()->ok()) {
    std::cerr << "error: cannot write trace stream " << path << "\n";
    std::exit(2);
  }
  obs::Profiler::instance().set_enabled(true);
}

/// Whether this run records sim trace events: trace= or telemetry= opened a
/// trace stream for them (they are its "ev" payload).
inline bool tracing_enabled(const Config& args) {
  return !args.get_string("trace", "").empty() ||
         !args.get_string("telemetry", "").empty();
}

/// Whether traced runs should also emit DecisionRecords (obs/decision.h)
/// into their trace lanes. On by default whenever tracing is on;
/// decisions=0 turns just the decision plane off (the tracing-overhead
/// gate measures both configurations).
inline bool decisions_enabled(const Config& args) {
  return tracing_enabled(args) && args.get_int("decisions", 1) != 0;
}

/// Worker threads for the sweep runner (threads=<n>; 0 = all hardware).
inline std::size_t bench_threads(const Config& args) {
  const int threads = args.get_int("threads", 0);
  if (threads < 0) {
    std::cerr << "error: threads must be >= 0\n";
    std::exit(2);
  }
  return static_cast<std::size_t>(threads);
}

/// Parses shard=<i>/<N> ("0/4" .. "3/4"). Aborts on malformed values.
inline exp::Shard parse_shard(const std::string& text) {
  exp::Shard shard;
  unsigned long index = 0;
  unsigned long count = 0;
  char trailing = '\0';
  if (std::sscanf(text.c_str(), "%lu/%lu%c", &index, &count, &trailing) != 2 ||
      count == 0 || index >= count) {
    std::cerr << "error: shard must be i/N with 0 <= i < N, got '" << text
              << "'\n";
    std::exit(2);
  }
  shard.index = static_cast<std::size_t>(index);
  shard.count = static_cast<std::size_t>(count);
  return shard;
}

/// Worker-mode drain contract (dispatcher-initiated kills, Ctrl-C on a
/// checkpointed run). SIGTERM/SIGINT set `shutdown_requested`; the sweep
/// runner stops picking up new tasks and finishes (and checkpoints) the
/// in-flight ones, the bench's normal tail then seals the trace stream,
/// and `drain_exit_if_requested` — the last line of every sweep
/// bench — exits 128+signal so a supervisor can never mistake the partial
/// run for a complete shard. A second signal exits immediately.
inline std::atomic<bool>& shutdown_requested() {
  static std::atomic<bool> requested{false};
  return requested;
}

inline std::atomic<int>& shutdown_signal() {
  static std::atomic<int> signal_number{0};
  return signal_number;
}

namespace detail {
inline void drain_signal_handler(int sig) {
  // Async-signal-safe: lock-free atomic stores only. Nothing needs flushing
  // here — checkpoint rows are flushed as written, and the trace stream is
  // line-oriented JSONL, valid up to its last complete line.
  if (shutdown_requested().exchange(true)) ::_exit(128 + sig);
  shutdown_signal().store(sig);
}
}  // namespace detail

/// Installs the SIGTERM/SIGINT drain handlers (idempotent). Benches enter
/// worker mode automatically when checkpoint= is given — see
/// runner_options — because that is when a drained run is resumable.
inline void install_drain_handlers() {
  struct sigaction action = {};
  action.sa_handler = detail::drain_signal_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;  // keep checkpoint writes EINTR-free
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

/// Sweep-runner options for one spec: threads=<n>, plus checkpoint=<dir>
/// (the resume file lands at <dir>/<sweep>.ckpt.jsonl, one per sweep so
/// multi-sweep benches keep their grids apart) and shard=<i>/<N> (each
/// sweep of the bench is sliced the same way). A checkpointed bench runs in
/// worker mode: drain signals stop the sweep cleanly instead of killing it.
inline exp::RunnerOptions runner_options(const Config& args,
                                         const exp::SweepSpec& spec) {
  exp::RunnerOptions options;
  options.threads = bench_threads(args);
  const std::string dir = args.get_string("checkpoint", "");
  if (!dir.empty()) {
    options.checkpoint_path = dir + "/" + spec.name() + ".ckpt.jsonl";
    install_drain_handlers();
  }
  options.stop = &shutdown_requested();
  const std::string shard = args.get_string("shard", "");
  if (!shard.empty()) options.shard = parse_shard(shard);
  if (obs::TelemetrySink* telemetry = telemetry_sink();
      telemetry != nullptr) {
    // Heartbeats flow from the runner's worker threads into the telemetry
    // stream, where a supervising dispatcher tails them for live progress.
    options.on_progress = [telemetry, sweep = spec.name()](
                              std::size_t done, std::size_t total) {
      telemetry->heartbeat(sweep, done, total);
    };
  }
  return options;
}

/// Worker-mode exit-status contract: call as the last statement of a sweep
/// bench's main(). No-op when no drain signal arrived; after a drain it
/// flushes the standard streams and exits 128+signal (143 for SIGTERM), so
/// exit 0 always means "my shard slice is complete in the checkpoint".
inline void drain_exit_if_requested() {
  if (!shutdown_requested().load()) return;
  const int sig = shutdown_signal().load();
  std::cerr << "[bench] drained after signal " << sig
            << "; checkpoint is resumable\n";
  std::cout.flush();
  std::cerr.flush();
  std::exit(128 + (sig == 0 ? SIGTERM : sig));
}

/// Metric `m` of task `index`, or NaN when the slot was not executed (a
/// sharded run printed before its shards merge). Keeps the partial console
/// tables rendering without touching complete runs.
inline double row_value(const exp::SweepRun& run, std::size_t index,
                        std::size_t m) {
  return index < run.rows.size() && m < run.rows[index].size()
             ? run.rows[index][m]
             : std::numeric_limits<double>::quiet_NaN();
}

/// The default experiment configuration: the paper's data center, simulated
/// with a small PDU count (results are invariant to it, see
/// core/datacenter.h) so every bench finishes in seconds.
inline core::DataCenterConfig bench_config(const Config& args) {
  core::DataCenterConfig config;
  config.fleet.pdu_count =
      static_cast<std::size_t>(args.get_int("pdus", 8));
  config.dc_headroom = args.get_double("dc_headroom", 0.10);
  config.pue = args.get_double("pue", 1.53);
  return config;
}

/// Writes a time series as CSV ("time_s,value") under csv=<dir> if given.
/// Exits 1 when the file cannot be written: a missing export must not read
/// as success.
inline void maybe_export_csv(const Config& args, const std::string& name,
                             const TimeSeries& series) {
  const std::string dir = args.get_string("csv", "");
  if (dir.empty()) return;
  if (!exp::export_time_series_csv(dir, name, series, &std::cout)) {
    std::exit(1);
  }
}

/// Sweep reporting glue: rows/summary CSV + JSON under csv=<dir>, and a
/// BENCH_<sweep>.json perf record (wall time, runs/sec, threads) under
/// perf=<dir>. Perf records pick up the wall-clock profile scopes when the
/// profiler is on (see obs_setup). Exits 1, after attempting every file,
/// when any of them cannot be written.
inline void maybe_export_sweep(const Config& args, const exp::SweepSpec& spec,
                               const exp::SweepRun& run,
                               const exp::SweepSummary& summary) {
  bool ok = true;
  const std::string csv_dir = args.get_string("csv", "");
  if (!csv_dir.empty()) {
    ok = exp::export_sweep(csv_dir, spec, run, summary, &std::cout);
  }
  const std::string perf_dir = args.get_string("perf", "");
  if (!perf_dir.empty()) {
    const std::vector<obs::ProfileEvent> events =
        obs::Profiler::instance().collect();
    // Sampling-profiler folded stacks (non-empty only when the sweep ran
    // with DCS_OBS_SAMPLER set) ride along in the perf record.
    const obs::FoldedStacks folded = obs::Sampler::instance().folded();
    const obs::FoldedStacks* folded_ptr = folded.empty() ? nullptr : &folded;
    const obs::ProfileSummary scopes = obs::summarize(events);
    ok = exp::export_perf_record(perf_dir, summary, &std::cout,
                                 events.empty() ? nullptr : &scopes,
                                 folded_ptr) &&
         ok;
  }
  if (!ok) std::exit(1);
}

/// Turns the wall-clock profiler on when either observability knob is set;
/// call once near the top of main(), before any sweep runs.
inline void obs_setup(const Config& args) {
  if (!args.get_string("trace", "").empty() ||
      !args.get_string("metrics", "").empty()) {
    obs::Profiler::instance().set_enabled(true);
  }
}

/// Observability tail: under metrics=<dir>, writes
/// `<name>_metrics.{csv,json,prom}`; then seals the trace stream — folds
/// the profiler's wall-clock scopes into `tracer` (which forwards them to
/// the stream), appends the metric snapshot, the sampler's folded stacks
/// and the end marker. Null arguments skip their part. Exits 1 when a
/// metrics file cannot be written or the stream failed mid-run (e.g. disk
/// full): a missing export or a truncated trace must not read as success.
inline void maybe_export_obs(const Config& args, const std::string& name,
                             obs::Tracer* tracer,
                             const obs::MetricsRegistry* metrics) {
  bool ok = true;
  const std::string metrics_dir = args.get_string("metrics", "");
  if (!metrics_dir.empty() && metrics != nullptr) {
    ok = obs::export_metrics(metrics_dir, name, *metrics, &std::cout);
  }
  obs::TelemetrySink* stream = telemetry_sink();
  if (stream != nullptr) {
    if (tracer != nullptr) {
      obs::export_to(*tracer, obs::Profiler::instance().collect());
    }
    if (metrics != nullptr) stream->write_metrics(*metrics);
    const obs::FoldedStacks folded = obs::Sampler::instance().folded();
    if (!folded.empty()) stream->write_stacks(folded);
    stream->close();
    if (stream->ok()) {
      std::cout << "[obs] streamed " << stream->events_written()
                << " events to " << stream->path() << "\n";
    } else {
      std::cerr << "error: cannot write trace stream " << stream->path()
                << "\n";
      ok = false;
    }
  }
  if (!ok) std::exit(1);
}

}  // namespace dcs::bench
