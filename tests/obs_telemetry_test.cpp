// Telemetry streams: crash-safe JSONL schema, the incremental tail the
// dispatcher supervises with, and the torn-trailing-line tolerance both
// sides rely on when workers die mid-write. The ObsSink suite covers
// TelemetrySink as the file sink behind a streaming Tracer: bounded
// memory, Tracer forwarding, and failure reporting.
#include "obs/telemetry.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/json.h"

namespace dcs::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<json::Value> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(json::parse(line));
  return lines;
}

TraceEvent instant_at(double ts_us, const std::string& name) {
  TraceEvent e;
  e.phase = 'i';
  e.ts_us = ts_us;
  e.cat = "test";
  e.name = name;
  return e;
}

TEST(ObsTelemetry, StreamCarriesHeaderEventsMetricsStacksAndEndMarker) {
  const std::string path = temp_path("telemetry_full.jsonl");
  TelemetryOptions options;
  options.name = "unit";
  options.shard = "1/4";
  {
    TelemetrySink sink(path, options);
    ASSERT_TRUE(sink.ok());
    sink.write_lane_name(Domain::kSim, 0, "lane-zero");
    sink.write(instant_at(1.0, "first"));
    sink.heartbeat("sweep", 3, 10);
    MetricsRegistry registry;
    registry.counter("rows_total").inc(5.0);
    registry.gauge("margin_s").set(0.25);
    sink.write_metrics(registry);
    sink.write_stacks({{"main;task", 7}});
    EXPECT_EQ(sink.events_written(), 1u);
    sink.close();
  }
  const std::vector<json::Value> lines = read_lines(path);
  ASSERT_GE(lines.size(), 7u);

  // Header first, exactly once, with the cross-process merge anchor.
  EXPECT_EQ(lines[0].at("t").as_string(), "header");
  EXPECT_EQ(lines[0].at("telemetry").as_number(), 1.0);
  EXPECT_EQ(lines[0].at("name").as_string(), "unit");
  EXPECT_EQ(lines[0].at("shard").as_string(), "1/4");
  EXPECT_GT(lines[0].at("pid").as_number(), 0.0);
  EXPECT_EQ(static_cast<std::int64_t>(lines[0].at("epoch_unix_us").as_number()),
            Profiler::instance().epoch_unix_us());

  std::size_t events = 0, lanes = 0, heartbeats = 0, metrics = 0, stacks = 0;
  for (const json::Value& line : lines) {
    const std::string& t = line.at("t").as_string();
    if (t == "ev") {
      ++events;
      EXPECT_EQ(line.at("name").as_string(), "first");
    } else if (t == "lane") {
      ++lanes;
      EXPECT_EQ(line.at("name").as_string(), "lane-zero");
    } else if (t == "hb") {
      ++heartbeats;
      EXPECT_EQ(line.at("done").as_number(), 3.0);
      EXPECT_EQ(line.at("total").as_number(), 10.0);
      EXPECT_GE(line.at("wall_us").as_number(), 0.0);
    } else if (t == "metric") {
      ++metrics;
    } else if (t == "stack") {
      ++stacks;
      EXPECT_EQ(line.at("stack").as_string(), "main;task");
      EXPECT_EQ(line.at("count").as_number(), 7.0);
    }
  }
  EXPECT_EQ(events, 1u);
  EXPECT_EQ(lanes, 1u);
  EXPECT_EQ(heartbeats, 1u);
  EXPECT_EQ(metrics, 2u);
  EXPECT_EQ(stacks, 1u);

  // End marker last: the clean-shutdown signal restarted shards lack.
  EXPECT_EQ(lines.back().at("t").as_string(), "end");
  EXPECT_EQ(lines.back().at("events").as_number(), 1.0);
  std::remove(path.c_str());
}

TEST(ObsTelemetry, CloseIsIdempotentAndSealsTheStream) {
  const std::string path = temp_path("telemetry_close.jsonl");
  TelemetrySink sink(path);
  sink.write(instant_at(1.0, "kept"));
  sink.close();
  sink.close();  // idempotent: one end marker
  sink.write(instant_at(2.0, "dropped"));
  sink.heartbeat("late", 1, 1);
  EXPECT_EQ(sink.events_written(), 1u);
  std::size_t ends = 0;
  bool dropped_seen = false;
  for (const json::Value& line : read_lines(path)) {
    if (line.at("t").as_string() == "end") ++ends;
    const json::Value* name = line.find("name");
    if (name != nullptr && name->is_string() &&
        name->as_string() == "dropped") {
      dropped_seen = true;
    }
  }
  EXPECT_EQ(ends, 1u);
  EXPECT_FALSE(dropped_seen) << "writes after close must be silent no-ops";
  std::remove(path.c_str());
}

TEST(ObsTelemetry, UnwritablePathReportsNotOkAndNeverCrashes) {
  TelemetrySink sink("/nonexistent-dir/telemetry.jsonl");
  EXPECT_FALSE(sink.ok());
  EXPECT_FALSE(sink.healthy());
  sink.write(instant_at(1.0, "dropped"));
  sink.heartbeat("s", 1, 2);
  sink.close();
}

TEST(ObsTelemetry, TailReadsIncrementallyAndTracksHeartbeats) {
  const std::string path = temp_path("telemetry_tail.jsonl");
  std::remove(path.c_str());

  TelemetryTail tail(path);
  EXPECT_FALSE(tail.poll()) << "a missing file is 'no data yet', not an error";
  EXPECT_FALSE(tail.have_header());

  TelemetryOptions options;
  options.name = "tailed";
  options.shard = "0/2";
  TelemetrySink sink(path, options);
  ASSERT_TRUE(sink.ok());
  EXPECT_TRUE(tail.poll());
  EXPECT_TRUE(tail.have_header());
  EXPECT_EQ(tail.name(), "tailed");
  EXPECT_EQ(tail.epoch_unix_us(), Profiler::instance().epoch_unix_us());
  EXPECT_FALSE(tail.have_heartbeat());

  sink.heartbeat("fake", 4, 24);
  EXPECT_TRUE(tail.poll());
  ASSERT_TRUE(tail.have_heartbeat());
  EXPECT_EQ(tail.heartbeat().sweep, "fake");
  EXPECT_EQ(tail.heartbeat().done, 4u);
  EXPECT_EQ(tail.heartbeat().total, 24u);
  EXPECT_FALSE(tail.ended());

  sink.heartbeat("fake", 24, 24);
  sink.write(instant_at(5.0, "tick"));
  sink.close();
  EXPECT_TRUE(tail.poll());
  EXPECT_EQ(tail.heartbeat().done, 24u);
  EXPECT_EQ(tail.events_seen(), 1u);
  EXPECT_TRUE(tail.ended());
  EXPECT_FALSE(tail.poll()) << "nothing new after the end marker";
  std::remove(path.c_str());
}

TEST(ObsTelemetry, TailNeverConsumesATornTrailingLine) {
  const std::string path = temp_path("telemetry_torn.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"t\":\"header\",\"telemetry\":1,\"name\":\"torn\",\"pid\":7,"
           "\"shard\":\"\",\"epoch_unix_us\":1000}\n";
    out << "{\"t\":\"hb\",\"wall_us\":1.0,\"sweep\":\"s\",\"done\":2,"
           "\"total\":8}\n";
    // The worker was killed mid-write: no trailing newline, truncated JSON.
    out << "{\"t\":\"hb\",\"wall_us\":2.0,\"sweep\":\"s\",\"do";
  }
  TelemetryTail tail(path);
  EXPECT_TRUE(tail.poll());
  EXPECT_TRUE(tail.have_header());
  EXPECT_EQ(tail.pid(), 7);
  EXPECT_EQ(tail.epoch_unix_us(), 1000);
  EXPECT_EQ(tail.heartbeat().done, 2u)
      << "the torn line must not be consumed";
  EXPECT_EQ(tail.lines_read(), 2u);
  EXPECT_FALSE(tail.poll()) << "the torn tail is not new data";

  // The missing bytes land (a restarted attempt never does this, but an
  // interrupted write flushing late can): the completed line is consumed.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "ne\":5,\"total\":8}\n";
  }
  EXPECT_TRUE(tail.poll());
  EXPECT_EQ(tail.heartbeat().done, 5u);
  EXPECT_EQ(tail.lines_read(), 3u);
  std::remove(path.c_str());
}

TEST(ObsTelemetry, TailResetsWhenTheStreamShrinksOrIsReplaced) {
  const std::string path = temp_path("telemetry_rewritten.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"t\":\"header\",\"telemetry\":1,\"name\":\"first\",\"pid\":11,"
           "\"shard\":\"\",\"epoch_unix_us\":100}\n";
    out << "{\"t\":\"hb\",\"wall_us\":1.0,\"sweep\":\"s\",\"done\":7,"
           "\"total\":8}\n";
  }
  TelemetryTail tail(path);
  EXPECT_TRUE(tail.poll());
  EXPECT_EQ(tail.name(), "first");
  EXPECT_EQ(tail.heartbeat().done, 7u);
  EXPECT_EQ(tail.lines_read(), 2u);

  // The worker restarted and rewrote the stream from scratch with a
  // shorter file: the tail must reset to offset zero and re-read the new
  // content instead of waiting for the file to outgrow the stale offset.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"t\":\"header\",\"telemetry\":1,\"name\":\"second\",\"pid\":12,"
           "\"shard\":\"\",\"epoch_unix_us\":200}\n";
  }
  EXPECT_TRUE(tail.poll());
  EXPECT_EQ(tail.name(), "second");
  EXPECT_EQ(tail.pid(), 12);
  EXPECT_EQ(tail.epoch_unix_us(), 200);
  EXPECT_EQ(tail.lines_read(), 3u);

  // Appends to the replacement stream keep flowing incrementally.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"t\":\"hb\",\"wall_us\":2.0,\"sweep\":\"s\",\"done\":1,"
           "\"total\":8}\n";
  }
  EXPECT_TRUE(tail.poll());
  EXPECT_EQ(tail.heartbeat().done, 1u);
  EXPECT_EQ(tail.lines_read(), 4u);
  std::remove(path.c_str());
}

TEST(ObsTelemetry, TailSkipsUnknownLineTypes) {
  const std::string path = temp_path("telemetry_unknown.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"t\":\"header\",\"telemetry\":1,\"name\":\"fwd\",\"pid\":1,"
           "\"shard\":\"\",\"epoch_unix_us\":5}\n";
    out << "{\"t\":\"future-type\",\"payload\":true}\n";
    out << "{\"t\":\"hb\",\"wall_us\":1.0,\"sweep\":\"s\",\"done\":1,"
           "\"total\":2}\n";
  }
  TelemetryTail tail(path);
  EXPECT_TRUE(tail.poll());
  EXPECT_TRUE(tail.have_header());
  EXPECT_EQ(tail.heartbeat().done, 1u)
      << "unknown types must be skipped, not fatal";
  EXPECT_EQ(tail.lines_read(), 3u);
  std::remove(path.c_str());
}

// -- TelemetrySink behind a Tracer -------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Counts the lines of `path` whose "t" is `type`.
std::size_t count_lines(const std::string& path, const std::string& type) {
  std::size_t n = 0;
  for (const json::Value& line : read_lines(path)) {
    if (line.at("t").as_string() == type) ++n;
  }
  return n;
}

TEST(ObsSink, StreamsManyEventsThroughSmallBufferWithBoundedMemory) {
  const std::string path = temp_path("sink_bounded.jsonl");
  const std::size_t kEvents = 120000;
  {
    TelemetrySink sink(path);
    ASSERT_TRUE(sink.ok());
    Tracer tracer(&sink);
    for (std::size_t i = 0; i < kEvents; ++i) {
      tracer.instant(Duration::seconds(static_cast<double>(i)), "test", "e");
    }
    // The whole point: nothing is retained in memory, every event is on
    // its way to the file.
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_EQ(tracer.count(Domain::kSim), kEvents);
    EXPECT_EQ(sink.events_written(), kEvents);
  }
  EXPECT_EQ(count_lines(path, "ev"), kEvents);
  std::remove(path.c_str());
}

TEST(ObsSink, FinalizeIsIdempotentAndDtorFinalizes) {
  const std::string path = temp_path("sink_idempotent.jsonl");
  {
    TelemetrySink sink(path);
    sink.write(instant_at(1.0, "once"));
    sink.finalize();
    sink.finalize();
    EXPECT_TRUE(sink.ok());
  }  // dtor closes: end marker written exactly once
  EXPECT_EQ(count_lines(path, "ev"), 1u);
  EXPECT_EQ(count_lines(path, "end"), 1u);
  std::remove(path.c_str());
}

TEST(ObsSink, JsonlSinkWritesOneParsableObjectPerLine) {
  const std::string path = temp_path("sink_lines.jsonl");
  {
    TelemetrySink sink(path);
    for (std::size_t i = 0; i < 50; ++i) {
      sink.write(instant_at(static_cast<double>(i), "line"));
    }
    sink.write_lane_name(Domain::kSim, 0, "lane-zero");
  }
  std::size_t events = 0;
  for (const json::Value& v : read_lines(path)) {  // every line parses
    if (v.at("t").as_string() != "ev") continue;
    EXPECT_EQ(v.at("name").as_string(), "line");
    ++events;
  }
  EXPECT_EQ(events, 50u);
  EXPECT_EQ(count_lines(path, "lane"), 1u);
  std::remove(path.c_str());
}

TEST(ObsSink, LaneNamesRenderOnceAndInterleaveSafely) {
  const std::string path = temp_path("sink_lanes.jsonl");
  {
    TelemetrySink sink(path);
    Tracer tracer(&sink);
    tracer.name_lane(Domain::kSim, 2, "task-2");
    tracer.instant(Duration::seconds(1), "x", "a");
    tracer.name_lane(Domain::kSim, 2, "task-2");  // unchanged: not re-sent
    tracer.instant(Duration::seconds(2), "x", "b");
    tracer.name_lane(Domain::kSim, 2, "task-2b");  // a rename is
  }
  std::vector<std::string> order;
  for (const json::Value& v : read_lines(path)) {
    const std::string& t = v.at("t").as_string();
    if (t == "ev" || t == "lane") order.push_back(v.at("name").as_string());
  }
  EXPECT_EQ(order,
            (std::vector<std::string>{"task-2", "a", "b", "task-2b"}));
  std::remove(path.c_str());
}

TEST(ObsSink, StreamingTracerForwardsWithoutBuffering) {
  const std::string path = temp_path("sink_tracer.jsonl");
  {
    TelemetrySink sink(path);
    Tracer tracer(&sink);
    EXPECT_EQ(tracer.sink(), &sink);
    tracer.set_lane(5);
    for (int i = 0; i < 100; ++i) {
      tracer.instant(Duration::seconds(i), "cat", "streamed");
    }
    tracer.name_lane(Domain::kSim, 5, "lane-five");
    // Streaming mode: nothing retained, counts still tracked.
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_FALSE(tracer.empty());
    EXPECT_EQ(tracer.count(Domain::kSim), 100u);
    EXPECT_EQ(sink.events_written(), 100u);
  }
  EXPECT_NE(read_file(path).find("lane-five"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsSink, MergeIntoStreamingTracerDrainsBufferedSource) {
  const std::string path = temp_path("sink_merge.jsonl");
  {
    TelemetrySink sink(path);
    Tracer merged(&sink);
    Tracer task;
    task.set_lane(1);
    task.instant(Duration::seconds(1), "x", "from-task");
    task.name_lane(Domain::kSim, 1, "task-1");
    merged.merge_from(std::move(task));
    EXPECT_TRUE(task.empty());  // NOLINT(bugprone-use-after-move): contract
    EXPECT_EQ(merged.count(Domain::kSim), 1u);
    EXPECT_EQ(sink.events_written(), 1u);
  }
  const std::string text = read_file(path);
  EXPECT_NE(text.find("from-task"), std::string::npos);
  EXPECT_NE(text.find("task-1"), std::string::npos);
  std::remove(path.c_str());
}

/// Caps the process's file size (RLIMIT_FSIZE) with SIGXFSZ ignored, so
/// writes past the cap fail with EFBIG the way a full disk fails them with
/// ENOSPC; restores both on scope exit.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved_;
    capped.rlim_cur = bytes;
    active_ = ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = nullptr;
  bool active_ = false;
};

TEST(ObsSink, StreamFailureMidRunDropsSinkToNotOk) {
  // The sink opens fine, then a buffer flush fails mid-run. ok() must flip
  // at that flush boundary, not stay healthy until close().
  const std::string path = temp_path("sink_midrun.jsonl");
  std::remove(path.c_str());
  constexpr rlim_t kCap = 32 * 1024;
  std::size_t accepted = 0;
  {
    const FileSizeCap cap(kCap);
    if (!cap.active()) GTEST_SKIP() << "cannot cap the file size here";
    TelemetrySink sink(path);
    ASSERT_TRUE(sink.ok()) << "the header fits under the cap";
    for (; accepted < 100000 && sink.ok(); ++accepted) {
      sink.write(instant_at(static_cast<double>(accepted), "doomed"));
    }
    EXPECT_FALSE(sink.ok()) << "the failed flush must drop the sink state";
    // Each line is ~80 bytes: ok() flips within about one file buffer of
    // crossing the cap.
    EXPECT_LE(accepted, (kCap + 16 * 1024) / 64);
    const std::size_t written = sink.events_written();
    sink.write(instant_at(1e9, "after-failure"));  // dropped, no crash
    EXPECT_EQ(sink.events_written(), written);
    sink.heartbeat("late", 1, 2);
    sink.close();  // must not crash, and writes no end marker
    EXPECT_FALSE(sink.ok());
  }
  EXPECT_EQ(read_file(path).find("\"t\":\"end\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsSink, UnwritablePathReportsNotOk) {
  TelemetrySink missing("/nonexistent-dir/trace.jsonl");
  EXPECT_FALSE(missing.ok());
  missing.write(instant_at(1.0, "dropped"));
  missing.finalize();  // must not crash
  // /dev/full opens, but the header flush at open already fails.
  if (std::ofstream("/dev/full").is_open()) {
    TelemetrySink full("/dev/full");
    EXPECT_FALSE(full.ok());
    full.write(instant_at(1.0, "dropped"));
    EXPECT_EQ(full.events_written(), 0u);
    full.close();
  }
}

}  // namespace
}  // namespace dcs::obs
