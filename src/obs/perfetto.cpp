#include "obs/perfetto.h"

#include <cstdlib>
#include <utility>

#include "util/proto.h"

namespace dcs::obs {
namespace {

// Perfetto protos, field numbers as of the stable TrackEvent schema.
// Trace
constexpr std::uint32_t kTracePacketField = 1;
// TracePacket
constexpr std::uint32_t kPacketTimestamp = 8;
constexpr std::uint32_t kPacketSequenceId = 10;
constexpr std::uint32_t kPacketTrackEvent = 11;
constexpr std::uint32_t kPacketTrackDescriptor = 60;
// TrackDescriptor
constexpr std::uint32_t kTrackUuid = 1;
constexpr std::uint32_t kTrackName = 2;
constexpr std::uint32_t kTrackProcess = 3;
constexpr std::uint32_t kTrackThread = 4;
constexpr std::uint32_t kTrackParentUuid = 5;
constexpr std::uint32_t kTrackCounter = 8;
// ProcessDescriptor
constexpr std::uint32_t kProcessPid = 1;
constexpr std::uint32_t kProcessName = 6;
// ThreadDescriptor
constexpr std::uint32_t kThreadPid = 1;
constexpr std::uint32_t kThreadTid = 2;
constexpr std::uint32_t kThreadName = 5;
// CounterDescriptor
constexpr std::uint32_t kCounterUnitName = 6;
// TrackEvent
constexpr std::uint32_t kEventCategories = 22;
constexpr std::uint32_t kEventType = 9;
constexpr std::uint32_t kEventTrackUuid = 11;
constexpr std::uint32_t kEventName = 23;
constexpr std::uint32_t kEventDoubleCounterValue = 44;
constexpr std::uint32_t kEventFlowIds = 47;  // repeated fixed64 flow_ids
// TrackEvent.Type
constexpr std::uint64_t kTypeSliceBegin = 1;
constexpr std::uint64_t kTypeSliceEnd = 2;
constexpr std::uint64_t kTypeInstant = 3;
constexpr std::uint64_t kTypeCounter = 4;

/// One writer per file; a fixed sequence id is enough because we never
/// intern state.
constexpr std::uint64_t kSequenceId = 1;

proto::ProtoWriter track_event(std::uint64_t type, std::uint64_t track_uuid) {
  proto::ProtoWriter event;
  event.varint(kEventType, type);
  event.varint(kEventTrackUuid, track_uuid);
  return event;
}

}  // namespace

void PerfettoWriter::packet(const std::string& payload) {
  std::string framed;
  framed.reserve(payload.size() + 4);
  proto::append_varint(framed, (kTracePacketField << 3) | 2u);
  proto::append_varint(framed, payload.size());
  out_->write(framed.data(), static_cast<std::streamsize>(framed.size()));
  out_->write(payload.data(), static_cast<std::streamsize>(payload.size()));
  ++packets_;
}

std::uint64_t PerfettoWriter::add_process(std::int32_t pid,
                                          const std::string& name) {
  const std::uint64_t uuid = next_uuid_++;
  proto::ProtoWriter process;
  process.int64(kProcessPid, pid);
  process.string(kProcessName, name);
  proto::ProtoWriter track;
  track.varint(kTrackUuid, uuid);
  track.message(kTrackProcess, process);
  proto::ProtoWriter pkt;
  pkt.varint(kPacketSequenceId, kSequenceId);
  pkt.message(kPacketTrackDescriptor, track);
  packet(pkt.bytes());
  return uuid;
}

std::uint64_t PerfettoWriter::add_thread(std::int32_t pid, std::int32_t tid,
                                         const std::string& name) {
  const std::uint64_t uuid = next_uuid_++;
  redeclare_thread(uuid, pid, tid, name);
  return uuid;
}

void PerfettoWriter::redeclare_thread(std::uint64_t uuid, std::int32_t pid,
                                      std::int32_t tid,
                                      const std::string& name) {
  proto::ProtoWriter thread;
  thread.int64(kThreadPid, pid);
  thread.int64(kThreadTid, tid);
  thread.string(kThreadName, name);
  proto::ProtoWriter track;
  track.varint(kTrackUuid, uuid);
  track.message(kTrackThread, thread);
  proto::ProtoWriter pkt;
  pkt.varint(kPacketSequenceId, kSequenceId);
  pkt.message(kPacketTrackDescriptor, track);
  packet(pkt.bytes());
}

std::uint64_t PerfettoWriter::add_counter(std::uint64_t parent_uuid,
                                          const std::string& name,
                                          const std::string& unit) {
  const std::uint64_t uuid = next_uuid_++;
  proto::ProtoWriter counter;
  if (!unit.empty()) counter.string(kCounterUnitName, unit);
  proto::ProtoWriter track;
  track.varint(kTrackUuid, uuid);
  track.string(kTrackName, name);
  track.varint(kTrackParentUuid, parent_uuid);
  track.message(kTrackCounter, counter);
  proto::ProtoWriter pkt;
  pkt.varint(kPacketSequenceId, kSequenceId);
  pkt.message(kPacketTrackDescriptor, track);
  packet(pkt.bytes());
  return uuid;
}

void PerfettoWriter::slice_begin(std::uint64_t track_uuid, std::uint64_t ts_ns,
                                 const std::string& name,
                                 const std::string& category) {
  proto::ProtoWriter event = track_event(kTypeSliceBegin, track_uuid);
  event.string(kEventName, name);
  if (!category.empty()) event.string(kEventCategories, category);
  proto::ProtoWriter pkt;
  pkt.varint(kPacketTimestamp, ts_ns);
  pkt.varint(kPacketSequenceId, kSequenceId);
  pkt.message(kPacketTrackEvent, event);
  packet(pkt.bytes());
}

void PerfettoWriter::slice_end(std::uint64_t track_uuid, std::uint64_t ts_ns) {
  const proto::ProtoWriter event = track_event(kTypeSliceEnd, track_uuid);
  proto::ProtoWriter pkt;
  pkt.varint(kPacketTimestamp, ts_ns);
  pkt.varint(kPacketSequenceId, kSequenceId);
  pkt.message(kPacketTrackEvent, event);
  packet(pkt.bytes());
}

void PerfettoWriter::instant(std::uint64_t track_uuid, std::uint64_t ts_ns,
                             const std::string& name,
                             const std::string& category,
                             const std::vector<std::uint64_t>& flow_ids) {
  proto::ProtoWriter event = track_event(kTypeInstant, track_uuid);
  event.string(kEventName, name);
  if (!category.empty()) event.string(kEventCategories, category);
  for (const std::uint64_t flow : flow_ids) {
    event.fixed64(kEventFlowIds, flow);
  }
  proto::ProtoWriter pkt;
  pkt.varint(kPacketTimestamp, ts_ns);
  pkt.varint(kPacketSequenceId, kSequenceId);
  pkt.message(kPacketTrackEvent, event);
  packet(pkt.bytes());
}

void PerfettoWriter::counter(std::uint64_t track_uuid, std::uint64_t ts_ns,
                             double value) {
  proto::ProtoWriter event = track_event(kTypeCounter, track_uuid);
  event.fixed64_double(kEventDoubleCounterValue, value);
  proto::ProtoWriter pkt;
  pkt.varint(kPacketTimestamp, ts_ns);
  pkt.varint(kPacketSequenceId, kSequenceId);
  pkt.message(kPacketTrackEvent, event);
  packet(pkt.bytes());
}

namespace detail {

bool counter_value(const TraceEvent& event, double* value) {
  const TraceArg* fallback = nullptr;
  for (const TraceArg& a : event.args) {
    if (a.key == "value") {
      fallback = &a;
      break;
    }
    if (fallback == nullptr) fallback = &a;
  }
  if (fallback == nullptr) return false;
  // Args hold pre-rendered JSON literals; only numeric ones qualify.
  char* end = nullptr;
  const double parsed = std::strtod(fallback->value.c_str(), &end);
  if (end == fallback->value.c_str() || end == nullptr || *end != '\0') {
    return false;
  }
  *value = parsed;
  return true;
}

std::uint64_t flow_id_hash(std::string_view token) noexcept {
  // FNV-1a, 64-bit: deterministic across platforms, no allocation.
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : token) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

namespace {

/// Unwraps a pre-rendered JSON string literal ("d0-1" with quotes) to the
/// raw token; non-string literals pass through unchanged.
std::string_view unquote(std::string_view literal) noexcept {
  if (literal.size() >= 2 && literal.front() == '"' && literal.back() == '"') {
    return literal.substr(1, literal.size() - 2);
  }
  return literal;
}

}  // namespace

std::vector<std::uint64_t> decision_flow_ids(const TraceEvent& event,
                                             std::string_view scope) {
  std::vector<std::uint64_t> flows;
  for (const TraceArg& a : event.args) {
    if (a.key != "id" && a.key != "cause") continue;
    std::string token(scope);
    if (!token.empty()) token.push_back('/');
    token.append(unquote(a.value));
    flows.push_back(flow_id_hash(token));
  }
  return flows;
}

}  // namespace detail

}  // namespace dcs::obs
