#include "obs/trace.h"

#include <charconv>
#include <cstdio>
#include <system_error>
#include <utility>

#include "util/check.h"

namespace dcs::obs {
namespace detail {

void append_number(std::string& out, double v) {
  // Shortest round-trip form (strtod recovers the exact bits, like %.17g)
  // via to_chars: ~7x cheaper than snprintf, which matters because arg()
  // renders eagerly on the controller's tracing hot path.
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  if (res.ec != std::errc()) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
    return;
  }
  out.append(buf, res.ptr);
}

std::string render_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

namespace {

[[nodiscard]] bool needs_escaping(char c) noexcept {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  // Fast path: event categories, names and arg keys are almost always plain
  // identifiers — copy verbatim, escape only on demand.
  std::size_t plain = 0;
  while (plain < s.size() && !needs_escaping(s[plain])) ++plain;
  out.append(s.data(), plain);
  for (std::size_t i = plain; i < s.size(); ++i) {
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string render_string(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

namespace {

constexpr int kSimPid = 1;
constexpr int kWallPid = 2;

[[nodiscard]] int pid_of(Domain domain) noexcept {
  return domain == Domain::kSim ? kSimPid : kWallPid;
}

void append_args(std::string& out, const std::vector<TraceArg>& args) {
  out += '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ", ";
    append_json_string(out, args[i].key);
    out += ": ";
    out += args[i].value;
  }
  out += '}';
}

}  // namespace

void append_event_json(std::string& out, const TraceEvent& e) {
  out += "{\"ph\": \"";
  out += e.phase;
  out += "\", \"ts\": ";
  append_number(out, e.ts_us);
  if (e.phase == 'X') {
    out += ", \"dur\": ";
    append_number(out, e.dur_us);
  }
  out += ", \"pid\": ";
  append_uint(out, static_cast<std::uint64_t>(pid_of(e.domain)));
  out += ", \"tid\": ";
  append_uint(out, e.lane);
  out += ", \"cat\": ";
  append_json_string(out, e.cat);
  out += ", \"name\": ";
  append_json_string(out, e.name);
  if (e.phase == 'i') out += ", \"s\": \"t\"";
  if (!e.args.empty()) {
    out += ", \"args\": ";
    append_args(out, e.args);
  }
  out += '}';
}

void append_jsonl_event(std::string& out, const TraceEvent& e) {
  // The discriminator is compact so readers can dispatch on the
  // `{"t":"<type>"` prefix without parsing (obs::TelemetryTail).
  out += "{\"t\":\"ev\", \"domain\": \"";
  out += to_string(e.domain);
  out += "\", \"ph\": \"";
  out += e.phase;
  out += "\", \"ts\": ";
  append_number(out, e.ts_us);
  if (e.phase == 'X') {
    out += ", \"dur\": ";
    append_number(out, e.dur_us);
  }
  out += ", \"lane\": ";
  append_uint(out, e.lane);
  out += ", \"cat\": ";
  append_json_string(out, e.cat);
  out += ", \"name\": ";
  append_json_string(out, e.name);
  if (!e.args.empty()) {
    out += ", \"args\": ";
    append_args(out, e.args);
  }
  out += "}\n";
}

}  // namespace detail

std::string_view to_string(Domain domain) noexcept {
  return domain == Domain::kSim ? "sim" : "wall";
}

TraceArg arg(std::string key, double value) {
  return TraceArg{std::move(key), detail::render_number(value)};
}

TraceArg arg(std::string key, std::string_view value) {
  return TraceArg{std::move(key), detail::render_string(value)};
}

TraceArg arg(std::string key, bool value) {
  return TraceArg{std::move(key), value ? "true" : "false"};
}

void Tracer::instant(Duration t, std::string_view cat, std::string_view name,
                     std::vector<TraceArg> args) {
  TraceEvent e;
  e.domain = Domain::kSim;
  e.phase = 'i';
  e.ts_us = t.sec() * 1e6;
  e.lane = lane_;
  e.cat = cat;
  e.name = name;
  e.args = std::move(args);
  append(std::move(e));
}

void Tracer::counter(Duration t, std::string_view cat, std::string_view name,
                     std::vector<TraceArg> args) {
  TraceEvent e;
  e.domain = Domain::kSim;
  e.phase = 'C';
  e.ts_us = t.sec() * 1e6;
  e.lane = lane_;
  e.cat = cat;
  e.name = name;
  e.args = std::move(args);
  append(std::move(e));
}

void Tracer::append(TraceEvent event) {
  ++counts_[static_cast<int>(event.domain)];
  if (sink_ != nullptr) {
    sink_->write(event);
    return;
  }
  events_.push_back(std::move(event));
}

void Tracer::merge_from(Tracer&& other) {
  DCS_REQUIRE(&other != this, "cannot merge a tracer into itself");
  if (sink_ == nullptr) {
    events_.reserve(events_.size() + other.events_.size());
  }
  for (TraceEvent& e : other.events_) append(std::move(e));
  for (auto& [key, name] : other.lane_names_) {
    name_lane(key.first, key.second, std::move(name));
  }
  // Leave the source empty so a double merge cannot silently duplicate the
  // stream (it would previously re-append every event).
  other.clear();
}

void Tracer::name_lane(Domain domain, std::uint32_t lane, std::string name) {
  const auto [it, inserted] = lane_names_.try_emplace({domain, lane}, name);
  if (!inserted) {
    // Profiler export re-names a lane per span: a sink sees changes only.
    if (it->second == name) return;
    it->second = std::move(name);
  }
  if (sink_ != nullptr) sink_->write_lane_name(domain, lane, it->second);
}

void Tracer::clear() {
  events_.clear();
  lane_names_.clear();
  counts_[0] = counts_[1] = 0;
}

namespace {

/// Serialization chunk size: build events into a string and flush in large
/// blocks — per-event ostream writes dominated the bulk exporters.
constexpr std::size_t kFlushBytes = 1 << 20;

}  // namespace

void Tracer::write_jsonl(std::ostream& out) const {
  std::string buf;
  buf.reserve(kFlushBytes + 512);
  for (const TraceEvent& e : events_) {
    detail::append_jsonl_event(buf, e);
    if (buf.size() >= kFlushBytes) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::string buf;
  buf.reserve(kFlushBytes + 512);
  buf += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&]() -> std::string& {
    buf += first ? "  " : ",\n  ";
    first = false;
    return buf;
  };
  for (const Domain domain : {Domain::kSim, Domain::kWall}) {
    bool have = count(domain) > 0;
    for (const auto& [key, name] : lane_names_) {
      have = have || key.first == domain;
    }
    if (!have) continue;
    std::string& meta = sep();
    meta += "{\"ph\": \"M\", \"pid\": ";
    meta += std::to_string(detail::pid_of(domain));
    meta += ", \"name\": \"process_name\", \"args\": {\"name\": ";
    detail::append_json_string(meta, to_string(domain));
    meta += "}}";
  }
  for (const auto& [key, name] : lane_names_) {
    std::string& meta = sep();
    meta += "{\"ph\": \"M\", \"pid\": ";
    meta += std::to_string(detail::pid_of(key.first));
    meta += ", \"tid\": ";
    meta += std::to_string(key.second);
    meta += ", \"name\": \"thread_name\", \"args\": {\"name\": ";
    detail::append_json_string(meta, name);
    meta += "}}";
  }
  for (const TraceEvent& e : events_) {
    detail::append_event_json(sep(), e);
    if (buf.size() >= kFlushBytes) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  buf += "\n]}\n";
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace dcs::obs
