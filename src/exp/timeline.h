// Timeline merge: folds telemetry streams (obs/telemetry.h) into one
// timeline, aligned on a shared wall-clock epoch. merge_timeline collects
// the dispatcher's own stream and every shard worker's per-attempt stream
// from a dispatch work dir; merge_streams is the core over explicit
// streams, which `trace_query export` runs on a single bench stream to get
// its Chrome JSON and Perfetto views.
//
// Alignment: each stream's header carries the producing process's
// obs::Profiler::epoch_unix_us(). The merge picks the earliest epoch as
// t=0 and shifts every *wall*-domain event by (stream epoch - base), so a
// span that started 3 s into a restarted worker's life lands 3 s after
// that worker's actual start on the shared axis — dispatcher supervision,
// worker attempts and restart gaps all line up. Sim-domain events keep
// their simulated timestamps untouched (they share the simulation's own
// time axis and are deterministic results, not wall observations).
//
// merge_timeline outputs (under `<work_dir>/merged/`):
//   timeline.jsonl          "ev" lines tagged with `src` ("dispatcher",
//                           "shard0", "shard0#2" for restart attempts) and
//                           aligned timestamps, plus proc/lane metadata
//   timeline_trace.json     Chrome trace-event JSON: one pid per
//                           (source, domain), process names "src/domain",
//                           loadable in Perfetto / chrome://tracing
//   timeline.perfetto       protobuf TrackEvent stream (obs/perfetto.h),
//                           SQL-queryable in trace_processor
//   dispatch_stacks.folded  every stream's sampler stacks, prefixed with
//                           its src, so distributed runs produce one flame
//                           graph like local ones do
//
// The merge is a pure function of the input files: re-running it (a
// dispatcher restarted over the same work dir) writes byte-identical
// outputs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dcs::exp {

struct TimelineOptions {
  /// Dispatcher work dir: `dispatcher_telemetry.jsonl` +
  /// `shard_<i>/telemetry_<attempt>.jsonl` streams.
  std::string work_dir;
  std::size_t shards = 0;
  /// Output directory; empty = `<work_dir>/merged`.
  std::string out_dir;
  /// Progress diagnostics; null = silent.
  std::ostream* log = nullptr;
};

struct TimelineSummary {
  /// Telemetry streams merged (dispatcher + one per worker attempt).
  std::size_t sources = 0;
  /// Streams that carried a parsable header (and therefore aligned).
  std::size_t aligned_sources = 0;
  std::size_t events = 0;
  std::size_t stacks = 0;
  /// Earliest header epoch — the merged timeline's wall t=0.
  std::int64_t base_epoch_unix_us = 0;
  std::string jsonl_path;
  std::string chrome_path;
  std::string perfetto_path;
  /// Empty when no stream carried sampler stacks.
  std::string stacks_path;
  /// Non-empty when nothing could be merged or an output failed to write.
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// One telemetry stream fed to the merge.
struct TimelineStream {
  std::string path;
  /// Source tag: "dispatcher", "shard0", "shard0#2" (restart attempts count
  /// from 1). "" for a single-process export, whose Chrome/Perfetto process
  /// names then read plain "sim"/"wall".
  std::string src;
};

/// Output files of merge_streams; an empty path skips that output.
struct TimelineOutputs {
  std::string jsonl;
  std::string chrome;
  std::string perfetto;
  /// Written only when some stream carried sampler stacks.
  std::string stacks;
};

/// The dispatcher layout's streams, in merge order: dispatcher first, then
/// each shard's attempts in attempt order.
[[nodiscard]] std::vector<TimelineStream> dispatcher_streams(
    const std::string& work_dir, std::size_t shards);

/// Merges `streams`, in order, into `outputs`. Stream-level problems
/// (missing files, torn lines) degrade silently; an empty stream list or
/// an unwritable output lands in `error`.
[[nodiscard]] TimelineSummary merge_streams(
    const std::vector<TimelineStream>& streams,
    const TimelineOutputs& outputs, std::ostream* log = nullptr);

/// Merges every telemetry stream under `options.work_dir`. Worker-level
/// problems (missing streams, torn lines) degrade silently — the merge
/// covers whatever telemetry exists; only unusable options or unwritable
/// outputs land in `error`.
[[nodiscard]] TimelineSummary merge_timeline(const TimelineOptions& options);

}  // namespace dcs::exp
