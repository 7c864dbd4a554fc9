// End-to-end and per-layer benchmark of the dcsprint simulator.
//
// The harness drives the simulator only through its public API
// (core::DataCenter::run, exp::run_sweep, serving::ServingLayer,
// core::Strategy, obs::Tracer / obs::TraceSink and the layer classes), so
// every number is measured from outside the layer it describes.
//
// Three workloads, each a closed loop (the next operation starts only when
// the previous one returned):
//  - paper909:      back-to-back 909-PDU runs on the 30-minute MS trace;
//  - day909_traced: the 24-hour MS day trace at 909 PDUs with recording,
//                   tracing, decision logging, counter export and in-memory
//                   serialization on every run;
//  - slo_sweep:     fig12's budget and admission grids on exp::run_sweep.
//
// An untraced run (trace=false) reports the end-to-end metrics; a traced
// run (trace=true) reports the per-layer metrics and records the harness's
// own spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  /// Passed to every trace generator's seed and to ServingParams::seed.
  std::uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: per-layer metrics plus spans.
  bool trace = false;
  /// Traced runs write their spans here as JSONL (empty: not written).
  std::string spans_out;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// The first few correctness-check failures, for the log.
  std::vector<std::string> failures;
  /// Hash of every simulated statistic the workload produced (hex).
  std::string sim_digest;
  /// Operations behind the op_ms percentiles.
  std::size_t op_samples = 0;
  std::vector<Metric> metrics;
};

/// paper909, day909_traced, slo_sweep.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Report run_workload(const Options& options);

/// Human-readable lines ("metric <name> <value> <unit>", "sim_digest ...")
/// followed by the one-line JSON result, which is always the last line.
void print_report(std::ostream& out, const Report& report);

/// Replays the topology inputs captured from a benchmark-driven controller
/// run of `workload` and returns, per tick, the replayed DC load next to the
/// dc_load_mw channel of DataCenter::run on the same input (both in MW).
struct TopologyReplayCheck {
  std::vector<double> replayed_mw;
  std::vector<double> recorded_mw;
};
[[nodiscard]] TopologyReplayCheck topology_replay_check(
    const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
