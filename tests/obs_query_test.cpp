// Offline trace analysis (obs/query.h): loading telemetry-schema streams,
// scope/counter statistics, threshold-window extraction with step-function
// semantics, byte-stable CSV output, and the Chrome view `trace_query
// export` renders from a stream.
#include "obs/query.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/timeline.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/json.h"

namespace dcs::obs::query {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

/// A merged-timeline-style JSONL fixture: two sources, spans, counters on
/// two lanes, and non-event lines that loaders must skip.
std::string timeline_fixture() {
  const std::string path = temp_path("query_timeline.jsonl");
  write_file(
      path,
      "{\"t\":\"timeline\",\"timeline\":1,\"sources\":2}\n"
      "{\"t\":\"proc\",\"src\":\"shard0\",\"pid\":10}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"X\","
      "\"ts\":0,\"dur\":100,\"lane\":0,\"cat\":\"c\",\"name\":\"work\"}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"X\","
      "\"ts\":200,\"dur\":300,\"lane\":0,\"cat\":\"c\",\"name\":\"work\"}\n"
      "{\"t\":\"ev\",\"src\":\"shard1\",\"domain\":\"sim\",\"ph\":\"X\","
      "\"ts\":0,\"dur\":50,\"lane\":0,\"cat\":\"c\",\"name\":\"work\"}\n"
      // Lane 0: degree steps 1 -> 3 -> 3.5 -> 1 -> 2 -> 1.
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":0,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":10,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":3}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":20,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":3.5}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":30,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":40,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":2}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":50,\"lane\":0,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      // Lane 1 interleaves its own independent step function; grouping by
      // (src, lane) must keep it from shredding lane 0's windows.
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":15,\"lane\":1,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      "{\"t\":\"ev\",\"src\":\"shard0\",\"domain\":\"sim\",\"ph\":\"C\","
      "\"ts\":35,\"lane\":1,\"name\":\"degree\",\"args\":{\"value\":1}}\n"
      "{\"t\":\"stack\",\"stack\":\"a;b\",\"count\":3}\n"
      // A line without the "t" discriminator is not an event line.
      "{\"domain\":\"sim\",\"ph\":\"X\",\"ts\":0,\"dur\":1,"
      "\"lane\":0,\"cat\":\"c\",\"name\":\"untyped\"}\n");
  return path;
}

TEST(ObsQuery, LoadsTimelineJsonlSkippingNonEventLines) {
  const std::string path = timeline_fixture();
  const TraceData trace = load_trace(path);
  EXPECT_EQ(trace.events.size(), 11u);
  EXPECT_EQ(trace.events[0].src, "shard0");
  EXPECT_EQ(trace.events[0].ph, 'X');
  EXPECT_EQ(trace.events[0].dur_us, 100.0);
  std::remove(path.c_str());
}

TEST(ObsQuery, ScopeStatsGroupBySourceAndName) {
  const std::string path = timeline_fixture();
  const std::vector<ScopeStat> stats = scope_stats(load_trace(path));
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].src, "shard0");
  EXPECT_EQ(stats[0].name, "work");
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_EQ(stats[0].total_us, 400.0);
  EXPECT_EQ(stats[0].mean_us(), 200.0);
  EXPECT_EQ(stats[0].min_us, 100.0);
  EXPECT_EQ(stats[0].max_us, 300.0);
  EXPECT_EQ(stats[1].src, "shard1");
  EXPECT_EQ(stats[1].count, 1u);
  std::remove(path.c_str());
}

TEST(ObsQuery, CounterStatsAggregatePerTrack) {
  const std::string path = timeline_fixture();
  const std::vector<CounterStat> stats = counter_stats(load_trace(path));
  ASSERT_EQ(stats.size(), 1u);  // one (src, name) track across both lanes
  EXPECT_EQ(stats[0].src, "shard0");
  EXPECT_EQ(stats[0].name, "degree");
  EXPECT_EQ(stats[0].points, 8u);
  EXPECT_EQ(stats[0].min, 1.0);
  EXPECT_EQ(stats[0].max, 3.5);
  EXPECT_EQ(stats[0].last, 1.0);
  EXPECT_NEAR(stats[0].mean, 13.5 / 8.0, 1e-12);
  std::remove(path.c_str());
}

TEST(ObsQuery, ThresholdWindowsFollowStepFunctionSemanticsPerLane) {
  const std::string path = timeline_fixture();
  const TraceData trace = load_trace(path);

  // Sprint spans: degree > 1. Lane 0 opens at the ts=10 sample and closes
  // when ts=30 takes effect, then reopens for the ts=40 sample closing at
  // 50. Lane 1 never exceeds 1 and contributes no windows.
  ThresholdQuery above;
  above.track = "degree";
  above.threshold = 1.0;
  above.below = false;
  std::vector<ThresholdWindow> windows = threshold_windows(trace, above);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].src, "shard0");
  EXPECT_EQ(windows[0].lane, 0u);
  EXPECT_EQ(windows[0].start_us, 10.0);
  EXPECT_EQ(windows[0].end_us, 30.0);
  EXPECT_EQ(windows[0].duration_us(), 20.0);
  EXPECT_EQ(windows[0].extreme, 3.5);
  EXPECT_EQ(windows[1].start_us, 40.0);
  EXPECT_EQ(windows[1].end_us, 50.0);
  EXPECT_EQ(windows[1].extreme, 2.0);

  // min_duration filters the short reopening.
  above.min_duration_us = 15.0;
  windows = threshold_windows(trace, above);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].extreme, 3.5);

  // below: degree < 2 — a window still open at the track's last sample
  // closes there. Lane 0: [0,10) and [30,40); the final sample at 50
  // (value 1) opens a window that closes at 50 with zero duration. Lane 1
  // is below throughout: [15, 35].
  ThresholdQuery below;
  below.track = "degree";
  below.threshold = 2.0;
  windows = threshold_windows(trace, below);
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].lane, 0u);
  EXPECT_EQ(windows[0].start_us, 0.0);
  EXPECT_EQ(windows[0].end_us, 10.0);
  EXPECT_EQ(windows[1].start_us, 30.0);
  EXPECT_EQ(windows[1].end_us, 40.0);
  EXPECT_EQ(windows[2].start_us, 50.0);
  EXPECT_EQ(windows[2].end_us, 50.0);
  EXPECT_EQ(windows[3].lane, 1u);
  EXPECT_EQ(windows[3].start_us, 15.0);
  EXPECT_EQ(windows[3].end_us, 35.0);

  EXPECT_THROW((void)threshold_windows(trace, ThresholdQuery{}),
               std::invalid_argument);
  std::remove(path.c_str());
}

/// A scalar JSON value as a comparable canonical literal.
std::string literal(const json::Value& v) {
  if (v.is_string()) return "\"" + v.as_string() + "\"";
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  return json::number_to_string(v.as_number());
}

/// Spans, counters, decision instants and lane names in both domains.
void populate(Tracer& tracer) {
  tracer.name_lane(Domain::kSim, 0, "greedy/day");
  tracer.name_lane(Domain::kSim, 3, "task \"3\"");
  tracer.instant(Duration::seconds(1), "decision", "sprint-onset",
                 {arg("id", std::string_view("d0-1")), arg("degree", 1.5),
                  arg("armed", true)});
  tracer.counter(Duration::seconds(2), "counter", "ups_soc",
                 {arg("value", 0.125)});
  tracer.set_lane(3);
  tracer.instant(Duration::seconds(3), "decision", "sprint-end",
                 {arg("id", std::string_view("d3-2")),
                  arg("cause", std::string_view("d0-1"))});
  TraceEvent span;
  span.domain = Domain::kWall;
  span.phase = 'X';
  span.ts_us = 12.5;
  span.dur_us = 0.1 + 0.2;  // not exactly representable: bits must survive
  span.lane = 1;
  span.cat = "profile";
  span.name = "controller.step";
  tracer.append(span);
  tracer.name_lane(Domain::kWall, 1, "worker-1");
}

TEST(ObsQuery, ExportedChromeRoundTripsTracerEvents) {
  const std::string stream = temp_path("query_roundtrip.jsonl");
  const std::string chrome = temp_path("query_roundtrip.json");
  Tracer reference;
  populate(reference);
  {
    TelemetrySink sink(stream);
    Tracer streaming(&sink);
    populate(streaming);
    sink.close();
    ASSERT_TRUE(sink.ok());
  }
  exp::TimelineOutputs outputs;
  outputs.chrome = chrome;
  const exp::TimelineSummary summary =
      exp::merge_streams({{stream, ""}}, outputs);
  ASSERT_TRUE(summary.ok()) << summary.error;

  const json::Value doc = json::parse_file(chrome);
  const json::Value& all = doc.at("traceEvents");
  std::map<int, std::string> process_names;
  std::map<std::pair<std::string, std::uint32_t>, std::string> lane_names;
  std::vector<const json::Value*> events;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const json::Value& e = all[i];
    if (e.at("ph").as_string() != "M") {
      events.push_back(&e);
    } else if (e.at("name").as_string() == "process_name") {
      process_names[static_cast<int>(e.at("pid").as_number())] =
          e.at("args").at("name").as_string();
    }
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const json::Value& e = all[i];
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "thread_name") {
      lane_names[{process_names.at(static_cast<int>(e.at("pid").as_number())),
                  static_cast<std::uint32_t>(e.at("tid").as_number())}] =
          e.at("args").at("name").as_string();
    }
  }

  ASSERT_EQ(events.size(), reference.events().size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& want = reference.events()[i];
    const json::Value& got = *events[i];
    SCOPED_TRACE(want.name);
    EXPECT_EQ(got.at("name").as_string(), want.name);
    EXPECT_EQ(got.at("ph").as_string(), std::string(1, want.phase));
    EXPECT_EQ(got.at("ts").as_number(), want.ts_us);
    if (want.phase == 'X') EXPECT_EQ(got.at("dur").as_number(), want.dur_us);
    EXPECT_EQ(got.at("tid").as_number(), static_cast<double>(want.lane));
    EXPECT_EQ(got.at("cat").as_string(), want.cat);
    EXPECT_EQ(process_names.at(static_cast<int>(got.at("pid").as_number())),
              to_string(want.domain));
    const json::Value* args = got.find("args");
    ASSERT_EQ(args != nullptr, !want.args.empty());
    if (args == nullptr) continue;
    ASSERT_EQ(args->as_object().size(), want.args.size());
    for (const TraceArg& a : want.args) {
      EXPECT_EQ(literal(args->at(a.key)), literal(json::parse(a.value)))
          << a.key;
    }
  }
  std::map<std::pair<std::string, std::uint32_t>, std::string> want_lanes;
  for (const auto& [key, name] : reference.lane_names()) {
    want_lanes[{std::string(to_string(key.first)), key.second}] = name;
  }
  EXPECT_EQ(lane_names, want_lanes);
  std::remove(stream.c_str());
  std::remove(chrome.c_str());
}

TEST(ObsQuery, LoadsSinkWrittenJsonlAndSurvivesTornTrailingLine) {
  const std::string path = temp_path("query_sink.jsonl");
  {
    TelemetrySink sink(path);
    TraceEvent e;
    e.phase = 'C';
    e.name = "margin";
    for (int i = 0; i < 6; ++i) {
      e.ts_us = static_cast<double>(i);
      e.args = {arg("value", static_cast<double>(i))};
      sink.write(e);
    }
  }
  {
    // A crashed worker's torn tail: half a JSON object, no newline.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"C\",\"ts\":99,\"na";
  }
  const TraceData trace = load_trace(path);
  EXPECT_EQ(trace.events.size(), 6u) << "the torn line is skipped, not fatal";
  const std::vector<CounterStat> stats = counter_stats(trace);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].points, 6u);
  std::remove(path.c_str());
}

TEST(ObsQuery, CsvWritersAreByteStable) {
  const std::string path = timeline_fixture();
  const TraceData trace = load_trace(path);
  const auto render = [&] {
    std::ostringstream out;
    write_scope_csv(out, scope_stats(trace));
    write_counter_csv(out, counter_stats(trace));
    ThresholdQuery q;
    q.track = "degree";
    q.threshold = 1.0;
    q.below = false;
    write_window_csv(out, threshold_windows(trace, q));
    return out.str();
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  EXPECT_NE(first.find("src,name,count,total_us,mean_us,min_us,max_us\n"),
            std::string::npos);
  EXPECT_NE(first.find("src,lane,start_us,end_us,duration_us,extreme\n"),
            std::string::npos);
  EXPECT_NE(first.find("shard0,0,10,30,20,3.5\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsQuery, JsonlWritersAreByteStable) {
  const std::string path = timeline_fixture();
  const TraceData trace = load_trace(path);
  const auto render = [&] {
    std::ostringstream out;
    write_scope_jsonl(out, scope_stats(trace));
    write_counter_jsonl(out, counter_stats(trace));
    ThresholdQuery q;
    q.track = "degree";
    q.threshold = 1.0;
    q.below = false;
    write_window_jsonl(out, threshold_windows(trace, q));
    return out.str();
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  // One self-describing object per row, numbers in canonical form.
  EXPECT_NE(first.find("{\"src\":\"shard0\",\"name\":\"work\",\"count\":2"),
            std::string::npos);
  EXPECT_NE(first.find("\"start_us\":10,\"end_us\":30,\"duration_us\":20,"
                       "\"extreme\":3.5}"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsQuery, InstantEventsKeepTheirArgsInSortedOrder) {
  const std::string path = temp_path("query_instant_args.jsonl");
  write_file(path,
             "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"i\",\"ts\":5,"
             "\"lane\":0,"
             "\"cat\":\"decision\",\"name\":\"burst-start\","
             "\"args\":{\"id\":\"d0-1\",\"in_demand\":1.5,\"schema\":1,"
             "\"armed\":true}}\n"
             "{\"t\":\"ev\",\"domain\":\"sim\",\"ph\":\"C\",\"ts\":6,"
             "\"lane\":0,"
             "\"name\":\"degree\",\"args\":{\"value\":2}}\n");
  const TraceData trace = load_trace(path);
  ASSERT_EQ(trace.events.size(), 2u);
  const QueryEvent& instant = trace.events[0];
  ASSERT_EQ(instant.args.size(), 4u);
  EXPECT_EQ(instant.args[0].first, "armed");
  EXPECT_EQ(instant.args[0].second, "true");
  EXPECT_EQ(instant.args[1].first, "id");
  EXPECT_EQ(instant.args[1].second, "d0-1");
  EXPECT_EQ(instant.args[2].second, "1.5");
  EXPECT_EQ(instant.args[3].first, "schema");
  // Counter events stay on the cheap path: value decoded, args not kept.
  EXPECT_TRUE(trace.events[1].args.empty());
  EXPECT_TRUE(trace.events[1].has_value);
  std::remove(path.c_str());
}

TEST(ObsQuery, RejectsUnreadableAndHandlesEmptyInput) {
  EXPECT_THROW((void)load_trace("/nonexistent-dir/trace.json"),
               std::invalid_argument);
  const std::string path = temp_path("query_empty.jsonl");
  write_file(path, "  \n\t\n");
  EXPECT_TRUE(load_trace(path).events.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcs::obs::query
