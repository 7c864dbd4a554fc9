#include "obs/telemetry.h"

#include <unistd.h>

#include <sstream>
#include <utility>

#include "obs/profile.h"
#include "util/json.h"

namespace dcs::obs {
TelemetrySink::TelemetrySink(const std::string& path, TelemetryOptions options)
    : path_(path), out_(path, std::ios::trunc) {
  ok_ = static_cast<bool>(out_);
  if (!ok_) return;
  std::ostringstream header;
  header << "{\"t\":\"header\",\"telemetry\":1,\"name\":"
         << detail::render_string(options.name)
         << ",\"pid\":" << ::getpid()
         << ",\"shard\":" << detail::render_string(options.shard)
         << ",\"epoch_unix_us\":" << Profiler::instance().epoch_unix_us()
         << "}";
  const std::lock_guard<std::mutex> lock(mu_);
  line_locked(header.str(), /*flush=*/true);
}

TelemetrySink::~TelemetrySink() { close(); }

void TelemetrySink::write(const TraceEvent& event) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !ok_) return;
  event_line_.clear();
  detail::append_jsonl_event(event_line_, event);
  out_.write(event_line_.data(),
             static_cast<std::streamsize>(event_line_.size()));
  if (!out_) ok_ = false;
  ++events_;
}

void TelemetrySink::write_lane_name(Domain domain, std::uint32_t lane,
                                    const std::string& name) {
  std::ostringstream line;
  line << "{\"t\":\"lane\",\"domain\":\"" << to_string(domain)
       << "\",\"lane\":" << lane
       << ",\"name\":" << detail::render_string(name) << "}";
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !ok_) return;
  line_locked(line.str(), /*flush=*/false);
}

void TelemetrySink::finalize() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !ok_) return;
  out_.flush();
  if (!out_) ok_ = false;
}

bool TelemetrySink::healthy() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ok_;
}

void TelemetrySink::heartbeat(const std::string& sweep, std::size_t done,
                              std::size_t total) {
  std::ostringstream line;
  line << "{\"t\":\"hb\",\"wall_us\":"
       << detail::render_number(Profiler::instance().now_us())
       << ",\"sweep\":" << detail::render_string(sweep) << ",\"done\":" << done
       << ",\"total\":" << total << "}";
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !ok_) return;
  line_locked(line.str(), /*flush=*/true);
}

void TelemetrySink::write_metrics(const MetricsRegistry& registry) {
  // Reuse the registry's deterministic CSV snapshot as the iteration API:
  // metric,kind,"labels",stat,value — one telemetry line per data row.
  std::ostringstream csv;
  registry.write_csv(csv);
  std::istringstream rows(csv.str());
  std::string row;
  std::getline(rows, row);  // header
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !ok_) return;
  while (std::getline(rows, row)) {
    const std::size_t c1 = row.find(',');
    const std::size_t c2 = row.find(',', c1 + 1);
    const std::size_t lq = row.find('"', c2);
    const std::size_t rq = row.find("\",", lq + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        lq == std::string::npos || rq == std::string::npos) {
      continue;
    }
    const std::size_t c4 = row.find(',', rq + 2);
    if (c4 == std::string::npos) continue;
    std::ostringstream line;
    line << "{\"t\":\"metric\",\"name\":"
         << detail::render_string(row.substr(0, c1)) << ",\"kind\":"
         << detail::render_string(row.substr(c1 + 1, c2 - c1 - 1))
         << ",\"labels\":"
         << detail::render_string(row.substr(lq + 1, rq - lq - 1))
         << ",\"stat\":"
         << detail::render_string(row.substr(rq + 2, c4 - rq - 2))
         << ",\"value\":" << detail::render_string(row.substr(c4 + 1)) << "}";
    line_locked(line.str(), /*flush=*/false);
  }
  out_.flush();
  if (!out_) ok_ = false;
}

void TelemetrySink::write_stacks(const FoldedStacks& stacks) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !ok_) return;
  for (const auto& [stack, count] : stacks) {
    std::ostringstream line;
    line << "{\"t\":\"stack\",\"stack\":" << detail::render_string(stack)
         << ",\"count\":" << count << "}";
    line_locked(line.str(), /*flush=*/false);
  }
  out_.flush();
  if (!out_) ok_ = false;
}

void TelemetrySink::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;
  if (!ok_) return;
  std::ostringstream line;
  line << "{\"t\":\"end\",\"wall_us\":"
       << detail::render_number(Profiler::instance().now_us())
       << ",\"events\":" << events_ << "}";
  line_locked(line.str(), /*flush=*/true);
  out_.close();
}

bool TelemetrySink::ok() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ok_;
}

std::size_t TelemetrySink::events_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TelemetrySink::line_locked(const std::string& line, bool flush) {
  out_ << line << '\n';
  if (flush) out_.flush();
  if (!out_) ok_ = false;
}

bool TelemetryTail::poll() {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < offset_) {
    // The stream shrank below our read offset: the file was truncated or
    // replaced (worker restart, log rotation). Restart from the beginning
    // rather than silently going quiet on the new content.
    offset_ = 0;
  }
  if (size <= offset_) return false;
  in.seekg(offset_);
  std::string chunk(static_cast<std::size_t>(size - offset_), '\0');
  in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  chunk.resize(static_cast<std::size_t>(in.gcount()));
  // Consume only complete lines; a torn trailing line stays unread until
  // its newline arrives.
  const std::size_t last_nl = chunk.rfind('\n');
  if (last_nl == std::string::npos) return false;
  std::size_t begin = 0;
  while (begin <= last_nl) {
    const std::size_t nl = chunk.find('\n', begin);
    consume(std::string_view(chunk).substr(begin, nl - begin));
    begin = nl + 1;
  }
  offset_ += static_cast<std::streamoff>(last_nl + 1);
  return true;
}

void TelemetryTail::consume(std::string_view line) {
  ++lines_;
  const auto has_type = [&](std::string_view type) {
    return line.size() > 7 + type.size() &&
           line.compare(0, 6, "{\"t\":\"") == 0 &&
           line.compare(6, type.size(), type) == 0 && line[6 + type.size()] == '"';
  };
  if (has_type("ev")) {
    ++events_;
    return;
  }
  // Structural lines are rare and small; full parses keep them robust.
  try {
    if (has_type("header")) {
      const json::Value v = json::parse(line);
      pid_ = static_cast<int>(v.at("pid").as_number());
      epoch_unix_us_ = static_cast<std::int64_t>(
          v.at("epoch_unix_us").as_number());
      name_ = v.at("name").as_string();
      have_header_ = true;
    } else if (has_type("hb")) {
      const json::Value v = json::parse(line);
      heartbeat_.wall_us = v.at("wall_us").as_number();
      heartbeat_.sweep = v.at("sweep").as_string();
      heartbeat_.done = static_cast<std::size_t>(v.at("done").as_number());
      heartbeat_.total = static_cast<std::size_t>(v.at("total").as_number());
      have_heartbeat_ = true;
    } else if (has_type("end")) {
      ended_ = true;
    }
  } catch (const std::exception&) {
    // A malformed structural line is dropped, not fatal: the stream belongs
    // to a process the supervisor is expected to outlive and distrust.
  }
}

}  // namespace dcs::obs
