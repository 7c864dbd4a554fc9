// Perfetto protobuf output: wire-format framing, TrackEvent payloads and
// the process/track convention of `trace_query export --perfetto=` (one
// telemetry stream through exp::merge_streams), verified with a small
// in-test protobuf decoder (the repo itself never parses protobuf).
#include "obs/perfetto.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/timeline.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/proto.h"

namespace dcs::obs {
namespace {

// -- minimal protobuf reader -------------------------------------------------

struct Field {
  std::uint32_t number = 0;
  std::uint32_t wire_type = 0;
  std::uint64_t varint = 0;     // wire type 0
  double fixed64 = 0.0;         // wire type 1 (as double)
  std::string bytes;            // wire type 2
};

std::uint64_t read_varint(const std::string& data, std::size_t* pos) {
  std::uint64_t value = 0;
  int shift = 0;
  while (*pos < data.size()) {
    const auto byte = static_cast<unsigned char>(data[(*pos)++]);
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  ADD_FAILURE() << "truncated varint";
  return value;
}

/// Decodes one message's fields (repeated fields appear repeatedly).
std::vector<Field> decode(const std::string& data) {
  std::vector<Field> fields;
  std::size_t pos = 0;
  while (pos < data.size()) {
    Field f;
    const std::uint64_t tag = read_varint(data, &pos);
    f.number = static_cast<std::uint32_t>(tag >> 3);
    f.wire_type = static_cast<std::uint32_t>(tag & 7u);
    if (f.wire_type == 0) {
      f.varint = read_varint(data, &pos);
    } else if (f.wire_type == 1) {
      EXPECT_LE(pos + 8, data.size());
      std::memcpy(&f.fixed64, data.data() + pos, sizeof(double));
      pos += 8;
    } else if (f.wire_type == 2) {
      const std::uint64_t len = read_varint(data, &pos);
      EXPECT_LE(pos + len, data.size());
      f.bytes = data.substr(pos, len);
      pos += len;
    } else {
      ADD_FAILURE() << "unexpected wire type " << f.wire_type;
      break;
    }
    fields.push_back(std::move(f));
  }
  return fields;
}

const Field* find(const std::vector<Field>& fields, std::uint32_t number) {
  for (const Field& f : fields) {
    if (f.number == number) return &f;
  }
  return nullptr;
}

/// Splits a trace file into TracePacket payloads, asserting the framing:
/// every top-level record is field 1, length-delimited.
std::vector<std::string> split_packets(const std::string& data) {
  std::vector<std::string> packets;
  for (const Field& f : decode(data)) {
    EXPECT_EQ(f.number, 1u) << "top-level field must be TracePacket";
    EXPECT_EQ(f.wire_type, 2u);
    packets.push_back(f.bytes);
  }
  return packets;
}

// TracePacket / TrackDescriptor / TrackEvent field numbers (stable schema).
constexpr std::uint32_t kPacketTimestamp = 8;
constexpr std::uint32_t kPacketTrackEvent = 11;
constexpr std::uint32_t kPacketTrackDescriptor = 60;
constexpr std::uint32_t kTrackUuid = 1;
constexpr std::uint32_t kTrackName = 2;
constexpr std::uint32_t kTrackProcess = 3;
constexpr std::uint32_t kTrackThread = 4;
constexpr std::uint32_t kProcessPid = 1;
constexpr std::uint32_t kProcessName = 6;
constexpr std::uint32_t kThreadName = 5;
constexpr std::uint32_t kEventType = 9;
constexpr std::uint32_t kEventTrackUuid = 11;
constexpr std::uint32_t kEventName = 23;
constexpr std::uint32_t kEventDoubleCounterValue = 44;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// -- PerfettoWriter ----------------------------------------------------------

TEST(ObsPerfetto, VarintEncodingRoundTrips) {
  for (const std::uint64_t value :
       {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
        0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::string bytes;
    proto::append_varint(bytes, value);
    std::size_t pos = 0;
    EXPECT_EQ(read_varint(bytes, &pos), value);
    EXPECT_EQ(pos, bytes.size());
  }
}

TEST(ObsPerfetto, WriterEmitsDescriptorsAndEventsWithSequentialUuids) {
  std::ostringstream out;
  PerfettoWriter writer(out);
  const std::uint64_t process = writer.add_process(42, "sim");
  const std::uint64_t thread = writer.add_thread(42, 3, "lane-three");
  const std::uint64_t counter = writer.add_counter(process, "degree");
  EXPECT_EQ(thread, process + 1);
  EXPECT_EQ(counter, process + 2);

  writer.slice_begin(thread, 1000, "work", "cat");
  writer.slice_end(thread, 2500);
  writer.instant(thread, 3000, "mark", "cat");
  writer.counter(counter, 4000, 2.5);
  EXPECT_EQ(writer.packets_written(), 7u);

  const std::vector<std::string> packets = split_packets(out.str());
  ASSERT_EQ(packets.size(), 7u);

  // Packet 0: process descriptor with pid and name.
  {
    const std::vector<Field> pkt = decode(packets[0]);
    const Field* track = find(pkt, kPacketTrackDescriptor);
    ASSERT_NE(track, nullptr);
    const std::vector<Field> desc = decode(track->bytes);
    EXPECT_EQ(find(desc, kTrackUuid)->varint, process);
    const Field* proc = find(desc, kTrackProcess);
    ASSERT_NE(proc, nullptr);
    const std::vector<Field> pd = decode(proc->bytes);
    EXPECT_EQ(find(pd, kProcessPid)->varint, 42u);
    EXPECT_EQ(find(pd, kProcessName)->bytes, "sim");
  }
  // Packet 1: thread descriptor carrying the lane name.
  {
    const std::vector<Field> desc =
        decode(find(decode(packets[1]), kPacketTrackDescriptor)->bytes);
    EXPECT_EQ(find(desc, kTrackUuid)->varint, thread);
    const std::vector<Field> td = decode(find(desc, kTrackThread)->bytes);
    EXPECT_EQ(find(td, kThreadName)->bytes, "lane-three");
  }
  // Packet 2: counter descriptor named at the track level.
  {
    const std::vector<Field> desc =
        decode(find(decode(packets[2]), kPacketTrackDescriptor)->bytes);
    EXPECT_EQ(find(desc, kTrackUuid)->varint, counter);
    EXPECT_EQ(find(desc, kTrackName)->bytes, "degree");
  }
  // Packets 3..6: slice begin/end, instant, counter sample.
  const auto event_of = [&](std::size_t i) {
    const std::vector<Field> pkt = decode(packets[i]);
    const Field* ev = find(pkt, kPacketTrackEvent);
    EXPECT_NE(ev, nullptr);
    return std::make_pair(decode(ev->bytes),
                          find(pkt, kPacketTimestamp)->varint);
  };
  {
    const auto [ev, ts] = event_of(3);
    EXPECT_EQ(find(ev, kEventType)->varint, 1u);  // TYPE_SLICE_BEGIN
    EXPECT_EQ(find(ev, kEventTrackUuid)->varint, thread);
    EXPECT_EQ(find(ev, kEventName)->bytes, "work");
    EXPECT_EQ(ts, 1000u);
  }
  {
    const auto [ev, ts] = event_of(4);
    EXPECT_EQ(find(ev, kEventType)->varint, 2u);  // TYPE_SLICE_END
    EXPECT_EQ(ts, 2500u);
  }
  {
    const auto [ev, ts] = event_of(5);
    EXPECT_EQ(find(ev, kEventType)->varint, 3u);  // TYPE_INSTANT
    EXPECT_EQ(find(ev, kEventName)->bytes, "mark");
    EXPECT_EQ(ts, 3000u);
  }
  {
    const auto [ev, ts] = event_of(6);
    EXPECT_EQ(find(ev, kEventType)->varint, 4u);  // TYPE_COUNTER
    EXPECT_EQ(find(ev, kEventTrackUuid)->varint, counter);
    EXPECT_EQ(find(ev, kEventDoubleCounterValue)->fixed64, 2.5);
    EXPECT_EQ(ts, 4000u);
  }
}

TEST(ObsPerfetto, IdenticalCallSequencesProduceIdenticalBytes) {
  const auto run = [] {
    std::ostringstream out;
    PerfettoWriter writer(out);
    const std::uint64_t p = writer.add_process(1, "sim");
    const std::uint64_t t = writer.add_thread(1, 0, "lane");
    writer.slice_begin(t, 10, "a", "c");
    writer.slice_end(t, 20);
    writer.counter(writer.add_counter(p, "x"), 30, 1.5);
    return out.str();
  };
  EXPECT_EQ(run(), run()) << "timeline re-merges rely on byte stability";
}

// -- export path: telemetry stream -> Perfetto ------------------------------

/// Streams `feed`'s writes through a TelemetrySink, exports the stream's
/// Perfetto view, and returns its path.
template <typename Feed>
std::string export_perfetto(const std::string& name, Feed feed) {
  const std::string stream = temp_path(name + ".jsonl");
  const std::string out = temp_path(name + ".perfetto");
  {
    TelemetrySink sink(stream);
    EXPECT_TRUE(sink.ok());
    feed(sink);
  }
  exp::TimelineOutputs outputs;
  outputs.perfetto = out;
  const exp::TimelineSummary summary =
      exp::merge_streams({{stream, ""}}, outputs);
  EXPECT_TRUE(summary.ok()) << summary.error;
  std::remove(stream.c_str());
  return out;
}

TraceEvent event_with(Domain domain, char phase, double ts_us,
                      const std::string& name) {
  TraceEvent e;
  e.domain = domain;
  e.phase = phase;
  e.ts_us = ts_us;
  e.cat = "test";
  e.name = name;
  return e;
}

TEST(ObsPerfetto, ExportMapsDomainsLanesAndCountersToTracks) {
  const std::string path =
      export_perfetto("perfetto_export", [](TelemetrySink& sink) {
        sink.write_lane_name(Domain::kSim, 0, "named-early");
        sink.write(event_with(Domain::kSim, 'i', 1.0, "tick"));
        TraceEvent span = event_with(Domain::kSim, 'X', 2.0, "span");
        span.dur_us = 5.0;
        sink.write(span);
        TraceEvent sample = event_with(Domain::kWall, 'C', 3.0, "degree");
        sample.args = {arg("value", 2.75)};
        sink.write(sample);
      });
  const std::vector<std::string> packets = split_packets(read_file(path));
  // sim process + sim thread + wall process + wall counter descriptors,
  // instant + slice begin/end + counter sample events.
  ASSERT_EQ(packets.size(), 8u);

  std::map<std::uint64_t, std::string> process_names;   // uuid -> name
  std::map<std::uint64_t, std::string> thread_names;    // uuid -> name
  std::map<std::uint64_t, std::string> counter_tracks;  // uuid -> name
  std::vector<std::vector<Field>> events;
  for (const std::string& payload : packets) {
    const std::vector<Field> pkt = decode(payload);
    if (const Field* track = find(pkt, kPacketTrackDescriptor)) {
      const std::vector<Field> desc = decode(track->bytes);
      const std::uint64_t uuid = find(desc, kTrackUuid)->varint;
      if (const Field* proc = find(desc, kTrackProcess)) {
        process_names[uuid] = find(decode(proc->bytes), kProcessName)->bytes;
      } else if (const Field* thread = find(desc, kTrackThread)) {
        thread_names[uuid] = find(decode(thread->bytes), kThreadName)->bytes;
      } else if (const Field* name = find(desc, kTrackName)) {
        counter_tracks[uuid] = name->bytes;
      }
    }
    if (const Field* ev = find(pkt, kPacketTrackEvent)) {
      events.push_back(decode(ev->bytes));
    }
  }
  ASSERT_EQ(process_names.size(), 2u);
  std::vector<std::string> procs;
  for (const auto& [uuid, name] : process_names) procs.push_back(name);
  EXPECT_EQ(procs, (std::vector<std::string>{"sim", "wall"}));
  // The early write_lane_name must beat the lazy "lane-0" default.
  ASSERT_EQ(thread_names.size(), 1u);
  EXPECT_EQ(thread_names.begin()->second, "named-early");
  ASSERT_EQ(counter_tracks.size(), 1u);
  EXPECT_EQ(counter_tracks.begin()->second, "degree");

  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(find(events[0], kEventType)->varint, 3u);  // instant
  EXPECT_EQ(find(events[1], kEventType)->varint, 1u);  // slice begin
  EXPECT_EQ(find(events[2], kEventType)->varint, 2u);  // slice end
  EXPECT_EQ(find(events[3], kEventType)->varint, 4u);  // counter
  EXPECT_EQ(find(events[3], kEventDoubleCounterValue)->fixed64, 2.75);
  EXPECT_EQ(find(events[3], kEventTrackUuid)->varint,
            counter_tracks.begin()->first);
  std::remove(path.c_str());
}

TEST(ObsPerfetto, LaneRenameRedeclaresTheSameTrackUuid) {
  // The instant mints the track before the rename arrives, forcing the
  // redeclare path rather than the eager-name one.
  const std::string path =
      export_perfetto("perfetto_rename", [](TelemetrySink& sink) {
        sink.write(event_with(Domain::kSim, 'i', 1.0, "before"));
        sink.write_lane_name(Domain::kSim, 0, "renamed");
      });
  std::map<std::uint64_t, std::vector<std::string>> names_by_uuid;
  for (const std::string& payload : split_packets(read_file(path))) {
    const std::vector<Field> pkt = decode(payload);
    const Field* track = find(pkt, kPacketTrackDescriptor);
    if (track == nullptr) continue;
    const std::vector<Field> desc = decode(track->bytes);
    if (const Field* thread = find(desc, kTrackThread)) {
      names_by_uuid[find(desc, kTrackUuid)->varint].push_back(
          find(decode(thread->bytes), kThreadName)->bytes);
    }
  }
  // Both descriptors must target one uuid — trace_processor keeps the last
  // name, so a rename must never mint a second track.
  ASSERT_EQ(names_by_uuid.size(), 1u);
  ASSERT_EQ(names_by_uuid.begin()->second.size(), 2u);
  EXPECT_EQ(names_by_uuid.begin()->second.back(), "renamed");
  std::remove(path.c_str());
}

TEST(ObsPerfetto, CounterEventsWithoutNumericPayloadAreDropped) {
  TraceEvent e = event_with(Domain::kSim, 'C', 1.0, "track");
  double value = 0.0;
  EXPECT_FALSE(detail::counter_value(e, &value));
  e.args = {arg("note", std::string_view("text"))};
  EXPECT_FALSE(detail::counter_value(e, &value));
  e.args = {arg("note", std::string_view("text")), arg("value", 4.0)};
  EXPECT_TRUE(detail::counter_value(e, &value));
  EXPECT_EQ(value, 4.0);
  // No "value" key: the first numeric arg qualifies.
  e.args = {arg("degree", 3.5)};
  EXPECT_TRUE(detail::counter_value(e, &value));
  EXPECT_EQ(value, 3.5);

  // The export path drops a counter sample without a numeric "value": no
  // counter track, no sample; the numeric one beside it survives.
  const std::string path =
      export_perfetto("perfetto_counter_drop", [](TelemetrySink& sink) {
        TraceEvent text = event_with(Domain::kSim, 'C', 1.0, "textual");
        text.args = {arg("value", std::string_view("n/a"))};
        sink.write(text);
        TraceEvent bare = event_with(Domain::kSim, 'C', 2.0, "bare");
        sink.write(bare);
        TraceEvent good = event_with(Domain::kSim, 'C', 3.0, "numeric");
        good.args = {arg("value", 1.5)};
        sink.write(good);
      });
  std::vector<std::string> counter_tracks;
  std::size_t samples = 0;
  for (const std::string& payload : split_packets(read_file(path))) {
    const std::vector<Field> pkt = decode(payload);
    if (const Field* track = find(pkt, kPacketTrackDescriptor)) {
      const std::vector<Field> desc = decode(track->bytes);
      if (const Field* name = find(desc, kTrackName)) {
        counter_tracks.push_back(name->bytes);
      }
    }
    if (find(pkt, kPacketTrackEvent) != nullptr) ++samples;
  }
  EXPECT_EQ(counter_tracks, (std::vector<std::string>{"numeric"}));
  EXPECT_EQ(samples, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcs::obs
