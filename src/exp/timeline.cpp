#include "exp/timeline.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/perfetto.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "util/json.h"

namespace dcs::exp {
namespace {

namespace fs = std::filesystem;

/// One telemetry stream feeding the merge, with its parsed header.
struct Source {
  std::string path;
  std::string src;
  bool have_header = false;
  int pid = 0;
  std::int64_t epoch_unix_us = 0;
  std::string name;
};

/// Reads the header (always the first line) without consuming the stream.
void read_header(Source* source) {
  std::ifstream in(source->path, std::ios::binary);
  std::string line;
  if (!in || !std::getline(in, line)) return;
  try {
    const json::Value v = json::parse(line);
    if (v.find("telemetry") == nullptr) return;
    source->pid = static_cast<int>(v.at("pid").as_number());
    source->epoch_unix_us =
        static_cast<std::int64_t>(v.at("epoch_unix_us").as_number());
    source->name = v.at("name").as_string();
    source->have_header = true;
  } catch (const std::exception&) {
    // Headerless stream (killed before the first flush): merged unaligned.
  }
}

std::string render_args(const json::Value& args) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, v] : args.as_object()) {
    if (!first) out += ",";
    first = false;
    out += obs::detail::render_string(key) + ":";
    switch (v.type()) {
      case json::Value::Type::kNumber:
        out += json::number_to_string(v.as_number());
        break;
      case json::Value::Type::kBool:
        out += v.as_bool() ? "true" : "false";
        break;
      case json::Value::Type::kString:
        out += obs::detail::render_string(v.as_string());
        break;
      default:
        out += "null";
        break;
    }
  }
  out += "}";
  return out;
}

/// Opens an output; an empty path leaves the stream closed. Writes to a
/// closed stream are no-ops, which is how merge_streams skips an output.
std::ofstream open_output(const std::string& path,
                          std::ios::openmode mode = std::ios::trunc) {
  std::ofstream out;
  if (!path.empty()) out.open(path, mode);
  return out;
}

/// A requested output is healthy while its stream is; a skipped one always.
bool output_ok(const std::ofstream& out, const std::string& path) {
  return path.empty() || static_cast<bool>(out);
}

/// Streaming Chrome trace-event document with per-source pids (the shared
/// detail::append_event_json hardcodes the single-process pid scheme).
class ChromeDoc {
 public:
  explicit ChromeDoc(const std::string& path)
      : path_(path), out_(open_output(path)) {
    out_ << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  }

  [[nodiscard]] bool ok() const { return output_ok(out_, path_); }

  std::ostream& element() {
    out_ << (first_ ? "  " : ",\n  ");
    first_ = false;
    return out_;
  }

  void finish() {
    out_ << "\n]}\n";
    out_.flush();
  }

  std::string path_;
  std::ofstream out_;

 private:
  bool first_ = true;
};

constexpr std::uint64_t to_ns(double ts_us) {
  return ts_us <= 0.0 ? 0 : static_cast<std::uint64_t>(ts_us * 1e3);
}

/// The merge driver: owns the three output writers and the per-source
/// track bookkeeping.
class Merger {
 public:
  Merger(const TimelineOutputs& outputs, TimelineSummary* summary)
      : summary_(summary),
        outputs_(outputs),
        jsonl_(open_output(outputs.jsonl)),
        chrome_(outputs.chrome),
        perfetto_stream_(open_output(outputs.perfetto,
                                     std::ios::trunc | std::ios::binary)),
        perfetto_(perfetto_stream_) {
    summary->jsonl_path = outputs.jsonl;
    summary->chrome_path = outputs.chrome;
    summary->perfetto_path = outputs.perfetto;
  }

  /// The first requested output whose stream failed; "" while all are ok.
  [[nodiscard]] std::string failed_output() const {
    if (!output_ok(jsonl_, outputs_.jsonl)) return outputs_.jsonl;
    if (!chrome_.ok()) return outputs_.chrome;
    if (!output_ok(perfetto_stream_, outputs_.perfetto)) {
      return outputs_.perfetto;
    }
    return "";
  }

  void begin(std::size_t sources, std::int64_t base_epoch) {
    base_epoch_ = base_epoch;
    jsonl_ << "{\"t\":\"timeline\",\"timeline\":1,\"sources\":" << sources
           << ",\"base_epoch_unix_us\":" << base_epoch << "}\n";
  }

  void add_source(const Source& source, std::size_t index) {
    sidx_ = index;
    src_ = source.src;
    offset_us_ = source.have_header
                     ? static_cast<double>(source.epoch_unix_us - base_epoch_)
                     : 0.0;
    jsonl_ << "{\"t\":\"proc\",\"src\":" << obs::detail::render_string(src_)
           << ",\"pid\":" << source.pid
           << ",\"name\":" << obs::detail::render_string(source.name)
           << ",\"aligned\":" << (source.have_header ? "true" : "false")
           << ",\"epoch_unix_us\":" << source.epoch_unix_us
           << ",\"offset_us\":" << json::number_to_string(offset_us_)
           << "}\n";
  }

  void consume_line(std::string_view line) {
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const std::exception&) {
      return;  // torn or foreign line
    }
    const json::Value* type = v.find("t");
    if (type == nullptr || !type->is_string()) return;
    const std::string& t = type->as_string();
    try {
      if (t == "ev") {
        event(v);
      } else if (t == "lane") {
        lane_name(v);
      } else if (t == "stack") {
        stacks_[src_ + ";" + v.at("stack").as_string()] +=
            static_cast<std::size_t>(v.at("count").as_number());
      }
    } catch (const std::exception&) {
      // Skip malformed lines; the merge covers what it can read.
    }
  }

  [[nodiscard]] const obs::FoldedStacks& stacks() const noexcept {
    return stacks_;
  }

  void finish() {
    chrome_.finish();
    perfetto_stream_.flush();
    jsonl_.flush();
  }

 private:
  // Chrome pid per (source, domain): sources land at 10, 12, 14, ... (sim)
  // and 11, 13, 15, ... (wall) — disjoint from the single-process 1/2
  // scheme so nothing collides when traces are concatenated by hand.
  [[nodiscard]] int chrome_pid(obs::Domain domain) const {
    return 10 + 2 * static_cast<int>(sidx_) +
           (domain == obs::Domain::kWall ? 1 : 0);
  }

  /// "src/domain", or just the domain for an untagged single stream.
  [[nodiscard]] std::string process_name(obs::Domain domain) const {
    const std::string name(obs::to_string(domain));
    return src_.empty() ? name : src_ + "/" + name;
  }

  /// A flow token scoped by src so per-source chains stay distinct.
  [[nodiscard]] std::string scoped(const std::string& token) const {
    return src_.empty() ? token : src_ + "/" + token;
  }

  void ensure_chrome_process(obs::Domain domain) {
    const auto key = std::make_pair(sidx_, domain);
    if (!chrome_procs_.insert(std::make_pair(key, true)).second) return;
    chrome_.element() << "{\"ph\": \"M\", \"pid\": " << chrome_pid(domain)
                      << ", \"name\": \"process_name\", \"args\": {\"name\": "
                      << obs::detail::render_string(process_name(domain))
                      << "}}";
  }

  std::uint64_t perfetto_process(obs::Domain domain) {
    const auto key = std::make_pair(sidx_, domain);
    const auto it = perfetto_procs_.find(key);
    if (it != perfetto_procs_.end()) return it->second;
    const std::uint64_t uuid =
        perfetto_.add_process(chrome_pid(domain), process_name(domain));
    perfetto_procs_.emplace(key, uuid);
    return uuid;
  }

  std::uint64_t perfetto_lane(obs::Domain domain, std::uint32_t lane) {
    const auto key = std::make_tuple(sidx_, domain, lane);
    const auto it = perfetto_lanes_.find(key);
    if (it != perfetto_lanes_.end()) return it->second;
    perfetto_process(domain);
    const auto named = lane_names_.find(key);
    const std::string name = named != lane_names_.end()
                                 ? named->second
                                 : "lane-" + std::to_string(lane);
    const std::uint64_t uuid = perfetto_.add_thread(
        chrome_pid(domain), static_cast<std::int32_t>(lane), name);
    perfetto_lanes_.emplace(key, uuid);
    return uuid;
  }

  std::uint64_t perfetto_counter(obs::Domain domain, const std::string& name) {
    const auto key = std::make_tuple(sidx_, domain, name);
    const auto it = perfetto_counters_.find(key);
    if (it != perfetto_counters_.end()) return it->second;
    const std::uint64_t uuid =
        perfetto_.add_counter(perfetto_process(domain), name);
    perfetto_counters_.emplace(key, uuid);
    return uuid;
  }

  void lane_name(const json::Value& v) {
    const obs::Domain domain = v.at("domain").as_string() == "wall"
                                   ? obs::Domain::kWall
                                   : obs::Domain::kSim;
    const auto lane = static_cast<std::uint32_t>(v.at("lane").as_number());
    const std::string& name = v.at("name").as_string();
    jsonl_ << "{\"t\":\"lane\",\"src\":" << obs::detail::render_string(src_)
           << ",\"domain\":\"" << obs::to_string(domain)
           << "\",\"lane\":" << lane
           << ",\"name\":" << obs::detail::render_string(name) << "}\n";
    ensure_chrome_process(domain);
    chrome_.element() << "{\"ph\": \"M\", \"pid\": " << chrome_pid(domain)
                      << ", \"tid\": " << lane
                      << ", \"name\": \"thread_name\", \"args\": {\"name\": "
                      << obs::detail::render_string(name) << "}}";
    const auto key = std::make_tuple(sidx_, domain, lane);
    const auto it = perfetto_lanes_.find(key);
    if (it != perfetto_lanes_.end()) {
      perfetto_.redeclare_thread(it->second, chrome_pid(domain),
                                 static_cast<std::int32_t>(lane), name);
    }
    lane_names_.insert_or_assign(key, name);
  }

  void event(const json::Value& v) {
    const std::string& domain_name = v.at("domain").as_string();
    const obs::Domain domain =
        domain_name == "wall" ? obs::Domain::kWall : obs::Domain::kSim;
    const std::string& ph = v.at("ph").as_string();
    if (ph.empty()) return;
    const char phase = ph[0];
    // Wall events shift onto the shared epoch; sim events keep their
    // simulated timestamps (a different axis entirely).
    double ts = v.at("ts").as_number();
    if (domain == obs::Domain::kWall) ts += offset_us_;
    double dur = 0.0;
    const json::Value* dur_v = v.find("dur");
    if (dur_v != nullptr) dur = dur_v->as_number();
    const auto lane =
        static_cast<std::uint32_t>(v.at("lane").as_number());
    const std::string& cat = v.at("cat").as_string();
    const std::string& name = v.at("name").as_string();
    const json::Value* args = v.find("args");

    jsonl_ << "{\"t\":\"ev\",\"src\":" << obs::detail::render_string(src_)
           << ",\"domain\":\"" << domain_name << "\",\"ph\":\"" << phase
           << "\",\"ts\":" << json::number_to_string(ts);
    if (phase == 'X') jsonl_ << ",\"dur\":" << json::number_to_string(dur);
    jsonl_ << ",\"lane\":" << lane
           << ",\"cat\":" << obs::detail::render_string(cat)
           << ",\"name\":" << obs::detail::render_string(name);
    if (args != nullptr && args->is_object()) {
      jsonl_ << ",\"args\":" << render_args(*args);
    }
    jsonl_ << "}\n";

    ensure_chrome_process(domain);
    std::ostream& out = chrome_.element();
    out << "{\"ph\": \"" << phase
        << "\", \"ts\": " << json::number_to_string(ts);
    if (phase == 'X') out << ", \"dur\": " << json::number_to_string(dur);
    out << ", \"pid\": " << chrome_pid(domain) << ", \"tid\": " << lane
        << ", \"cat\": " << obs::detail::render_string(cat)
        << ", \"name\": " << obs::detail::render_string(name);
    if (phase == 'i') out << ", \"s\": \"t\"";
    if (args != nullptr && args->is_object()) {
      out << ", \"args\": " << render_args(*args);
    }
    out << "}";

    switch (phase) {
      case 'C': {
        double value = 0.0;
        bool have = false;
        if (args != nullptr && args->is_object()) {
          const json::Value* direct = args->find("value");
          if (direct != nullptr && direct->is_number()) {
            value = direct->as_number();
            have = true;
          }
        }
        if (have) {
          perfetto_.counter(perfetto_counter(domain, name), to_ns(ts), value);
        }
        break;
      }
      case 'X': {
        const std::uint64_t track = perfetto_lane(domain, lane);
        perfetto_.slice_begin(track, to_ns(ts), name, cat);
        perfetto_.slice_end(track, to_ns(ts + dur));
        break;
      }
      default: {
        // Decision records carry id/cause args; hash them (scoped by src so
        // per-worker chains stay distinct after the merge) into Perfetto
        // flow ids so causal chains render as arrows.
        std::vector<std::uint64_t> flows;
        if (cat == "decision" && args != nullptr && args->is_object()) {
          for (const char* key : {"id", "cause"}) {
            const json::Value* token = args->find(key);
            if (token != nullptr && token->is_string()) {
              flows.push_back(
                  obs::detail::flow_id_hash(scoped(token->as_string())));
            }
          }
        }
        perfetto_.instant(perfetto_lane(domain, lane), to_ns(ts), name, cat,
                          flows);
        break;
      }
    }
    ++summary_->events;
  }

  TimelineSummary* summary_;
  TimelineOutputs outputs_;
  std::ofstream jsonl_;
  ChromeDoc chrome_;
  std::ofstream perfetto_stream_;
  obs::PerfettoWriter perfetto_;
  std::int64_t base_epoch_ = 0;
  std::size_t sidx_ = 0;
  std::string src_;
  double offset_us_ = 0.0;
  std::map<std::pair<std::size_t, obs::Domain>, bool> chrome_procs_;
  std::map<std::pair<std::size_t, obs::Domain>, std::uint64_t> perfetto_procs_;
  std::map<std::tuple<std::size_t, obs::Domain, std::uint32_t>, std::uint64_t>
      perfetto_lanes_;
  std::map<std::tuple<std::size_t, obs::Domain, std::uint32_t>, std::string>
      lane_names_;
  std::map<std::tuple<std::size_t, obs::Domain, std::string>, std::uint64_t>
      perfetto_counters_;
  obs::FoldedStacks stacks_;
};

}  // namespace

std::vector<TimelineStream> dispatcher_streams(const std::string& work_dir,
                                               std::size_t shards) {
  std::vector<TimelineStream> streams;
  std::error_code ec;
  const std::string dispatcher = work_dir + "/dispatcher_telemetry.jsonl";
  if (fs::is_regular_file(dispatcher, ec)) {
    streams.push_back({dispatcher, "dispatcher"});
  }
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string dir = work_dir + "/shard_" + std::to_string(i);
    std::vector<std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("telemetry_", 0) == 0 &&
          name.size() > 16 &&
          name.compare(name.size() - 6, 6, ".jsonl") == 0) {
        files.push_back(entry.path().string());
      }
    }
    // Attempt numbers are zero-padded (telemetry_0001.jsonl), so the
    // lexical sort is attempt order.
    std::sort(files.begin(), files.end());
    for (std::size_t a = 0; a < files.size(); ++a) {
      std::string src = "shard" + std::to_string(i);
      if (a > 0) src += "#" + std::to_string(a + 1);
      streams.push_back({files[a], std::move(src)});
    }
  }
  return streams;
}

TimelineSummary merge_streams(const std::vector<TimelineStream>& streams,
                              const TimelineOutputs& outputs,
                              std::ostream* log) {
  TimelineSummary summary;
  if (streams.empty()) {
    summary.error = "timeline: no telemetry streams";
    return summary;
  }
  std::vector<Source> sources;
  sources.reserve(streams.size());
  for (const TimelineStream& stream : streams) {
    Source source;
    source.path = stream.path;
    source.src = stream.src;
    read_header(&source);
    sources.push_back(std::move(source));
  }
  summary.sources = sources.size();

  std::int64_t base = 0;
  bool have_base = false;
  for (const Source& s : sources) {
    if (!s.have_header) continue;
    ++summary.aligned_sources;
    if (!have_base || s.epoch_unix_us < base) {
      base = s.epoch_unix_us;
      have_base = true;
    }
  }
  summary.base_epoch_unix_us = base;

  Merger merger(outputs, &summary);
  if (const std::string failed = merger.failed_output(); !failed.empty()) {
    summary.error = "timeline: cannot open " + failed;
    return summary;
  }
  merger.begin(sources.size(), base);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    merger.add_source(sources[i], i);
    std::ifstream in(sources[i].path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) merger.consume_line(line);
  }
  merger.finish();
  if (const std::string failed = merger.failed_output(); !failed.empty()) {
    summary.error = "timeline: cannot write " + failed;
    return summary;
  }

  summary.stacks = merger.stacks().size();
  if (!merger.stacks().empty() && !outputs.stacks.empty()) {
    std::ofstream stacks(outputs.stacks, std::ios::trunc);
    obs::write_folded(stacks, merger.stacks());
    stacks.flush();
    if (!stacks) {
      summary.error = "timeline: cannot write " + outputs.stacks;
      return summary;
    }
    summary.stacks_path = outputs.stacks;
  }
  if (log != nullptr) {
    *log << "[timeline] merged " << summary.events << " event(s) from "
         << summary.sources << " stream(s) (" << summary.aligned_sources
         << " aligned)\n";
  }
  return summary;
}

TimelineSummary merge_timeline(const TimelineOptions& options) {
  if (options.work_dir.empty()) {
    TimelineSummary summary;
    summary.error = "timeline: work_dir is required";
    return summary;
  }
  const std::string out_dir =
      options.out_dir.empty() ? options.work_dir + "/merged" : options.out_dir;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  TimelineOutputs outputs;
  outputs.jsonl = out_dir + "/timeline.jsonl";
  outputs.chrome = out_dir + "/timeline_trace.json";
  outputs.perfetto = out_dir + "/timeline.perfetto";
  outputs.stacks = out_dir + "/dispatch_stacks.folded";
  return merge_streams(dispatcher_streams(options.work_dir, options.shards),
                       outputs, options.log);
}

}  // namespace dcs::exp
