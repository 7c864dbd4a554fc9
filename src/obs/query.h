// Offline trace analysis behind tools/trace_query: loads a trace stream
// into one flat event list and computes per-scope duration stats,
// counter-track statistics and threshold-crossing windows — the questions
// every sprint trace gets asked ("how long were the sprints", "when did
// cb_trip_margin_s dip below 0.5 s", "which intervals violated the serving
// p99 SLO").
//
// Input is the one on-disk encoding, telemetry-schema JSONL
// (obs/telemetry.h): a bench's `*_trace.jsonl` / telemetry= stream, a
// Tracer::write_jsonl dump, or the dispatcher's merged `timeline.jsonl`.
// "ev" lines carry the events; the timeline's "src" tag survives into
// QueryEvent::src so stats can be grouped per shard process. Every other
// line type is skipped.
//
// All results are deterministic: events keep file order, groups iterate in
// sorted key order, so CSV output is byte-stable and diffable across runs
// of the same trace (the perf-gate trend workflow).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dcs::obs::query {

/// One trace event, decoded from one "ev" line. `src` is the producing
/// process ("" for single-process traces; "dispatcher"/"shard0#1"/... in
/// merged timelines).
struct QueryEvent {
  std::string src;
  std::string domain;  // "sim" | "wall"
  char ph = 'i';
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t lane = 0;
  std::string cat;
  std::string name;
  /// Counter payload ('C' events with a numeric "value" arg).
  double value = 0.0;
  bool has_value = false;
  /// Decoded args of instant ('i') events, in sorted key order. Values are
  /// canonical literals: strings raw (unquoted), numbers via
  /// json::number_to_string, bools "true"/"false". Only instants keep
  /// their args — they carry the structured payloads (decision records,
  /// fault injections); span/counter args stay on the cheaper paths.
  std::vector<std::pair<std::string, std::string>> args;
};

struct TraceData {
  std::vector<QueryEvent> events;
};

/// Loads a telemetry-schema JSONL trace. Unparsable lines (a crashed
/// writer's torn tail) are skipped. Throws std::invalid_argument when the
/// file cannot be read.
[[nodiscard]] TraceData load_trace(const std::string& path);

/// Duration statistics over 'X' span events, grouped by (src, name).
struct ScopeStat {
  std::string src;
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  [[nodiscard]] double mean_us() const noexcept {
    return count > 0 ? total_us / static_cast<double>(count) : 0.0;
  }
};
[[nodiscard]] std::vector<ScopeStat> scope_stats(const TraceData& trace);

/// Value statistics over 'C' counter samples, grouped by (src, track name).
struct CounterStat {
  std::string src;
  std::string name;
  std::size_t points = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double last = 0.0;
};
[[nodiscard]] std::vector<CounterStat> counter_stats(const TraceData& trace);

/// A maximal interval during which a counter track satisfied the threshold
/// predicate. Counter tracks are step functions: a sample's value holds
/// until the track's next sample; an interval still open at the track's
/// last sample closes there (end_us == last sample's ts). Each (src, lane)
/// pair is an independent track — sweep benches trace every grid task in
/// its own lane, and interleaving those step functions would shred the
/// windows.
struct ThresholdWindow {
  std::string src;
  std::uint32_t lane = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Most extreme value inside the window (min for `below`, max otherwise).
  double extreme = 0.0;
  [[nodiscard]] double duration_us() const noexcept {
    return end_us - start_us;
  }
};

struct ThresholdQuery {
  /// Counter track name (QueryEvent::name of the 'C' samples).
  std::string track;
  double threshold = 0.0;
  /// true: windows where value < threshold; false: value > threshold.
  bool below = true;
  /// Windows shorter than this are dropped (0 keeps everything).
  double min_duration_us = 0.0;
};

/// Threshold-crossing windows per (source process, lane), in
/// (src, lane, start) order.
[[nodiscard]] std::vector<ThresholdWindow> threshold_windows(
    const TraceData& trace, const ThresholdQuery& query);

// ---------------------------------------------------------------------------
// Decision provenance (obs/decision.h records in the trace)

/// One DecisionRecord recovered from a cat="decision" instant event.
struct DecisionRecord {
  /// Index of the backing event in TraceData::events (for args access).
  std::size_t event_index = 0;
  std::string src;
  std::uint32_t lane = 0;
  double ts_us = 0.0;
  std::string rule;   ///< event name, e.g. "sprint-onset"
  std::string id;     ///< "d<lane>-<seq>"
  std::string cause;  ///< cited cause id; "" for chain roots
};

/// Every decision record in the trace, in file order.
[[nodiscard]] std::vector<DecisionRecord> decision_records(
    const TraceData& trace);

/// A reconstructed causal chain: the queried record first, then its cause,
/// its cause's cause, ... back to a root (a record citing no cause).
/// Cause ids resolve to the *latest* earlier record (file order) with that
/// id in the same src — lanes may be reused across sweeps within one file,
/// so "latest earlier" picks the instance actually in scope.
struct ExplainChain {
  /// Indices into the decision_records() vector, target first.
  std::vector<std::size_t> chain;
  /// The cause id the walk could not resolve; "" when the chain is
  /// complete (ends at a root).
  std::string dangling;
  [[nodiscard]] bool complete() const noexcept { return dangling.empty(); }
};

[[nodiscard]] ExplainChain explain_record(
    const std::vector<DecisionRecord>& records, std::size_t target);

/// Per-(src, rule) decision inventory with chain-resolution counts.
struct AuditRow {
  std::string src;
  std::string rule;
  std::size_t count = 0;     ///< records of this rule
  std::size_t roots = 0;     ///< records citing no cause
  std::size_t resolved = 0;  ///< records whose full chain reaches a root
  std::size_t dangling = 0;  ///< records whose chain hits a missing id
};

[[nodiscard]] std::vector<AuditRow> audit(
    const std::vector<DecisionRecord>& records);

/// A decreasing step in a counter track that is contractually monotone
/// (e.g. slo_budget_violations). Tracks are per (src, lane), in time order.
struct MonotoneViolation {
  std::string src;
  std::uint32_t lane = 0;
  double ts_us = 0.0;
  double prev = 0.0;
  double value = 0.0;
};

[[nodiscard]] std::vector<MonotoneViolation> counter_monotone(
    const TraceData& trace, const std::string& track);

// ---------------------------------------------------------------------------
// Writers. CSV: header + one row per entry. JSONL: one object per row with
// a fixed key order. Both byte-stable (numbers via the exact-round-trip
// json::number_to_string renderer).

void write_scope_csv(std::ostream& out, const std::vector<ScopeStat>& stats);
void write_counter_csv(std::ostream& out,
                       const std::vector<CounterStat>& stats);
void write_window_csv(std::ostream& out,
                      const std::vector<ThresholdWindow>& windows);
void write_decision_csv(std::ostream& out,
                        const std::vector<DecisionRecord>& records);
/// One row per chain link: target id, depth (0 = the explained record),
/// then the link's fields; a dangling chain ends with a "missing" row.
void write_explain_csv(std::ostream& out,
                       const std::vector<DecisionRecord>& records,
                       const std::vector<ExplainChain>& chains);
void write_audit_csv(std::ostream& out, const std::vector<AuditRow>& rows);

void write_scope_jsonl(std::ostream& out, const std::vector<ScopeStat>& stats);
void write_counter_jsonl(std::ostream& out,
                         const std::vector<CounterStat>& stats);
void write_window_jsonl(std::ostream& out,
                        const std::vector<ThresholdWindow>& windows);
/// JSONL decision rows include the record's full args object (inputs,
/// thresholds, extras) — the machine-readable face of the audit plane.
void write_decision_jsonl(std::ostream& out, const TraceData& trace,
                          const std::vector<DecisionRecord>& records);
void write_explain_jsonl(std::ostream& out, const TraceData& trace,
                         const std::vector<DecisionRecord>& records,
                         const std::vector<ExplainChain>& chains);
void write_audit_jsonl(std::ostream& out, const std::vector<AuditRow>& rows);

}  // namespace dcs::obs::query
