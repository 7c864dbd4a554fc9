// Structured trace events for the sprinting stack. The one on-disk
// encoding is the telemetry line schema of obs/telemetry.h: every event is
// a {"t":"ev",...} line (detail::append_jsonl_event), whether it is
// streamed by a TelemetrySink or dumped by Tracer::write_jsonl. Chrome
// trace-event JSON and Perfetto protobuf views are produced offline from a
// stream by `trace_query export`; write_chrome_trace remains for in-memory
// consumers.
//
// Two clock domains share one Tracer:
//  * kSim — events stamped with *simulated* time (controller phase
//    transitions, fault injection, watchdog violations, recorder counter
//    tracks). These are part of the deterministic result surface: for a
//    fixed configuration the sim-event stream is bit-identical for any
//    thread count. Sweeps get this by giving each task its own Tracer (the
//    task owns its slot, same contract as the runner's result rows) and
//    merging in task order.
//  * kWall — wall-clock profiling spans from obs/profile.h. They carry
//    "where did the time go", never results, and are not deterministic.
//
// A Tracer either buffers events in memory (the default — events() exposes
// them for tests and task-order merging) or forwards them to a TraceSink
// (an obs::TelemetrySink streaming to disk with bounded memory).
//
// The Tracer itself is not thread-safe: one Tracer per run/task, merged
// afterwards on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace dcs::obs {

enum class Domain { kSim = 0, kWall = 1 };

[[nodiscard]] std::string_view to_string(Domain domain) noexcept;

/// One key/value event argument. `value` is a pre-rendered JSON literal
/// (a shortest-round-trip number — strtod recovers the exact bits — or an
/// escaped quoted string), so writers can emit it verbatim.
struct TraceArg {
  std::string key;
  std::string value;
};

[[nodiscard]] TraceArg arg(std::string key, double value);
[[nodiscard]] TraceArg arg(std::string key, std::string_view value);
[[nodiscard]] TraceArg arg(std::string key, bool value);

struct TraceEvent {
  Domain domain = Domain::kSim;
  /// Chrome trace-event phase: 'i' instant, 'X' complete span, 'C' counter.
  char phase = 'i';
  /// Microseconds: simulated time (kSim) or wall time since the profiler
  /// epoch (kWall).
  double ts_us = 0.0;
  /// Span length ('X' events only).
  double dur_us = 0.0;
  /// Lane ("tid" in the Chrome format): sweep task index for sim events,
  /// worker lane for wall events.
  std::uint32_t lane = 0;
  std::string cat;
  std::string name;
  std::vector<TraceArg> args;
};

/// Consumer of a Tracer's event stream. Implementations decide what storing
/// an event means: a telemetry file stream (obs/telemetry.h), a timing
/// probe, ... Sinks see events in append order; lane metadata may arrive at
/// any point before finalize().
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& event) = 0;
  virtual void write_lane_name(Domain domain, std::uint32_t lane,
                               const std::string& name) = 0;
  /// Flushes buffered events and completes the output (for file sinks: a
  /// valid, loadable trace). Idempotent; writing after finalize() is a
  /// contract violation.
  virtual void finalize() = 0;
  /// False once the sink can no longer store events (file sinks: a write
  /// failed, e.g. disk full).
  [[nodiscard]] virtual bool healthy() const { return true; }
};

class Tracer {
 public:
  Tracer() = default;
  /// A streaming Tracer: every appended event is forwarded to `sink`
  /// instead of being buffered (events() stays empty, count() still
  /// tracks totals), and a lane name whenever it changes. `sink` must
  /// outlive the Tracer; the caller finalizes.
  explicit Tracer(TraceSink* sink) : sink_(sink) {}

  /// Lane stamped on subsequently appended sim events (sweeps set this to
  /// the task index so merged traces keep one lane per task).
  void set_lane(std::uint32_t lane) noexcept { lane_ = lane; }
  [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }

  [[nodiscard]] TraceSink* sink() const noexcept { return sink_; }

  /// Appends a sim-domain instant event at simulated time `t`.
  void instant(Duration t, std::string_view cat, std::string_view name,
               std::vector<TraceArg> args = {});
  /// Appends a sim-domain counter event ('C') at simulated time `t`.
  void counter(Duration t, std::string_view cat, std::string_view name,
               std::vector<TraceArg> args);
  /// Appends a fully-specified event (profiling export, tests).
  void append(TraceEvent event);

  /// Appends every event of `other` in order (task-order sweep merging).
  /// Lane names are merged too; `other` is left empty, so a second merge
  /// from the same source is a no-op rather than a silent duplication.
  /// Self-merge is a precondition violation.
  void merge_from(Tracer&& other);

  /// Names a lane in the Chrome export ("thread_name" metadata).
  void name_lane(Domain domain, std::uint32_t lane, std::string name);

  /// Buffered events (empty in streaming mode — the sink consumed them).
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  /// Lane metadata registered via name_lane, keyed by (domain, lane).
  [[nodiscard]] const std::map<std::pair<Domain, std::uint32_t>, std::string>&
  lane_names() const noexcept {
    return lane_names_;
  }
  [[nodiscard]] bool empty() const noexcept {
    return counts_[0] + counts_[1] == 0;
  }
  /// Events appended so far per domain — maintained in both buffered and
  /// streaming mode.
  [[nodiscard]] std::size_t count(Domain domain) const noexcept {
    return counts_[static_cast<int>(domain)];
  }
  void clear();

  /// One telemetry "ev" line per event, in append order (no header: the
  /// event lines of a TelemetrySink stream).
  void write_jsonl(std::ostream& out) const;
  /// Chrome trace-event JSON: {"traceEvents": [...]} with process/thread
  /// metadata (pid 1 = "sim", pid 2 = "wall"); loads in Perfetto.
  void write_chrome_trace(std::ostream& out) const;

 private:
  std::uint32_t lane_ = 0;
  TraceSink* sink_ = nullptr;
  std::size_t counts_[2] = {0, 0};
  std::vector<TraceEvent> events_;
  std::map<std::pair<Domain, std::uint32_t>, std::string> lane_names_;
};

namespace detail {
// Shared JSON rendering. The append_* forms build into a caller buffer with
// std::to_chars — the bulk writers serialize hundreds of thousands of
// events, where per-event ostream formatting dominated the day-long fig01
// wall time.
[[nodiscard]] std::string render_number(double v);
[[nodiscard]] std::string render_string(std::string_view s);
void append_number(std::string& out, double v);
void append_json_string(std::string& out, std::string_view s);
/// One Chrome trace-event object (pid 1 = sim, pid 2 = wall), no newline.
void append_event_json(std::string& out, const TraceEvent& e);
/// One telemetry "ev" line ({"t":"ev","domain":...}), newline-terminated —
/// the single event-line renderer of TelemetrySink and Tracer::write_jsonl.
void append_jsonl_event(std::string& out, const TraceEvent& e);
}  // namespace detail

}  // namespace dcs::obs
