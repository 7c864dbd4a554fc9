#include "obs/query.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/trace.h"
#include "util/json.h"

namespace dcs::obs::query {
namespace {

/// The numeric payload of a parsed "args" object: the "value" member if
/// numeric, else the first numeric member (map order).
bool args_value(const json::Value& args, double* out) {
  if (!args.is_object()) return false;
  const auto numeric = [&](const json::Value& v, double* value) {
    if (v.is_number()) {
      *value = v.as_number();
      return true;
    }
    if (v.is_string()) {
      // number_to_string renders non-finite values as marker strings.
      try {
        *value = json::read_number(v);
        return true;
      } catch (const std::exception&) {
        return false;
      }
    }
    return false;
  };
  const json::Value* direct = args.find("value");
  if (direct != nullptr && numeric(*direct, out)) return true;
  for (const auto& [key, v] : args.as_object()) {
    if (numeric(v, out)) return true;
  }
  return false;
}

/// Decodes an instant event's args into canonical (key, literal) pairs.
void capture_args(const json::Value& args, QueryEvent* q) {
  if (!args.is_object()) return;
  for (const auto& [key, v] : args.as_object()) {
    if (v.is_string()) {
      q->args.emplace_back(key, v.as_string());
    } else if (v.is_number()) {
      q->args.emplace_back(key, json::number_to_string(v.as_number()));
    } else if (v.is_bool()) {
      q->args.emplace_back(key, v.as_bool() ? "true" : "false");
    }
  }
}

/// One telemetry/timeline line: "ev" lines carry the events; header, lane,
/// hb, metric, stack and end lines (and anything else) are skipped.
void load_jsonl_line(std::string_view line, TraceData* trace) {
  const json::Value e = json::parse(line);
  if (!e.is_object()) return;
  const json::Value* type = e.find("t");
  if (type == nullptr || !type->is_string() || type->as_string() != "ev") {
    return;
  }
  const json::Value* domain = e.find("domain");
  const json::Value* ph = e.find("ph");
  if (domain == nullptr || ph == nullptr || !ph->is_string() ||
      ph->as_string().empty()) {
    return;
  }
  QueryEvent q;
  const json::Value* src = e.find("src");
  if (src != nullptr && src->is_string()) q.src = src->as_string();
  q.domain = domain->as_string();
  q.ph = ph->as_string()[0];
  q.ts_us = e.at("ts").as_number();
  const json::Value* dur = e.find("dur");
  if (dur != nullptr) q.dur_us = dur->as_number();
  const json::Value* lane = e.find("lane");
  if (lane != nullptr) q.lane = static_cast<std::uint32_t>(lane->as_number());
  const json::Value* cat = e.find("cat");
  if (cat != nullptr && cat->is_string()) q.cat = cat->as_string();
  const json::Value* name = e.find("name");
  if (name != nullptr && name->is_string()) q.name = name->as_string();
  const json::Value* args = e.find("args");
  if (q.ph == 'C' && args != nullptr) {
    q.has_value = args_value(*args, &q.value);
  } else if (q.ph == 'i' && args != nullptr) {
    capture_args(*args, &q);
  }
  trace->events.push_back(std::move(q));
}

}  // namespace

TraceData load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DCS_REQUIRE(static_cast<bool>(in), "cannot read trace " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  TraceData trace;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t nl = text.find('\n', begin);
    if (nl == std::string::npos) nl = text.size();
    const std::string_view line(text.data() + begin, nl - begin);
    if (!line.empty() && line.find_first_not_of(" \t\r") != std::string_view::npos) {
      try {
        load_jsonl_line(line, &trace);
      } catch (const std::exception&) {
        // Torn trailing line of a crashed worker's stream: skip, the rest
        // of the file is still a valid trace.
      }
    }
    begin = nl + 1;
  }
  return trace;
}

std::vector<ScopeStat> scope_stats(const TraceData& trace) {
  std::map<std::pair<std::string, std::string>, ScopeStat> groups;
  for (const QueryEvent& e : trace.events) {
    if (e.ph != 'X') continue;
    ScopeStat& s = groups[{e.src, e.name}];
    if (s.count == 0) {
      s.src = e.src;
      s.name = e.name;
      s.min_us = e.dur_us;
      s.max_us = e.dur_us;
    }
    ++s.count;
    s.total_us += e.dur_us;
    s.min_us = std::min(s.min_us, e.dur_us);
    s.max_us = std::max(s.max_us, e.dur_us);
  }
  std::vector<ScopeStat> out;
  out.reserve(groups.size());
  for (auto& [key, stat] : groups) out.push_back(std::move(stat));
  return out;
}

std::vector<CounterStat> counter_stats(const TraceData& trace) {
  struct Acc {
    CounterStat stat;
    double sum = 0.0;
  };
  std::map<std::pair<std::string, std::string>, Acc> groups;
  for (const QueryEvent& e : trace.events) {
    if (e.ph != 'C' || !e.has_value) continue;
    Acc& a = groups[{e.src, e.name}];
    if (a.stat.points == 0) {
      a.stat.src = e.src;
      a.stat.name = e.name;
      a.stat.min = e.value;
      a.stat.max = e.value;
    }
    ++a.stat.points;
    a.sum += e.value;
    a.stat.min = std::min(a.stat.min, e.value);
    a.stat.max = std::max(a.stat.max, e.value);
    a.stat.last = e.value;
  }
  std::vector<CounterStat> out;
  out.reserve(groups.size());
  for (auto& [key, acc] : groups) {
    acc.stat.mean = acc.sum / static_cast<double>(acc.stat.points);
    out.push_back(std::move(acc.stat));
  }
  return out;
}

std::vector<ThresholdWindow> threshold_windows(const TraceData& trace,
                                               const ThresholdQuery& query) {
  DCS_REQUIRE(!query.track.empty(), "threshold query needs a track name");
  // Samples per (source, lane) track, in trace order; counter exporters
  // emit in time order, but a stable sort keeps merged inputs honest.
  std::map<std::pair<std::string, std::uint32_t>,
           std::vector<std::pair<double, double>>>
      tracks;
  for (const QueryEvent& e : trace.events) {
    if (e.ph != 'C' || !e.has_value || e.name != query.track) continue;
    tracks[{e.src, e.lane}].emplace_back(e.ts_us, e.value);
  }
  std::vector<ThresholdWindow> out;
  for (auto& [key, samples] : tracks) {
    std::stable_sort(samples.begin(), samples.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    bool open = false;
    ThresholdWindow w;
    const auto matches = [&](double v) {
      return query.below ? v < query.threshold : v > query.threshold;
    };
    const auto close_at = [&](double ts) {
      w.end_us = ts;
      if (w.duration_us() >= query.min_duration_us) out.push_back(w);
      open = false;
    };
    for (const auto& [ts, value] : samples) {
      if (matches(value)) {
        if (!open) {
          open = true;
          w = ThresholdWindow{};
          w.src = key.first;
          w.lane = key.second;
          w.start_us = ts;
          w.extreme = value;
        } else {
          w.extreme = query.below ? std::min(w.extreme, value)
                                  : std::max(w.extreme, value);
        }
      } else if (open) {
        // The step function left the region when this sample took effect.
        close_at(ts);
      }
    }
    if (open && !samples.empty()) close_at(samples.back().first);
  }
  return out;
}

namespace {

const std::string* arg_of(const QueryEvent& e, std::string_view key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

std::vector<DecisionRecord> decision_records(const TraceData& trace) {
  std::vector<DecisionRecord> out;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const QueryEvent& e = trace.events[i];
    if (e.ph != 'i' || e.cat != "decision") continue;
    const std::string* id = arg_of(e, "id");
    if (id == nullptr) continue;  // not a schema-conforming record
    DecisionRecord r;
    r.event_index = i;
    r.src = e.src;
    r.lane = e.lane;
    r.ts_us = e.ts_us;
    r.rule = e.name;
    r.id = *id;
    const std::string* cause = arg_of(e, "cause");
    if (cause != nullptr) r.cause = *cause;
    out.push_back(std::move(r));
  }
  return out;
}

ExplainChain explain_record(const std::vector<DecisionRecord>& records,
                            std::size_t target) {
  DCS_REQUIRE(target < records.size(), "explain target out of range");
  ExplainChain out;
  std::size_t cur = target;
  out.chain.push_back(cur);
  while (!records[cur].cause.empty()) {
    const std::string& cause = records[cur].cause;
    // Latest earlier record with that id in the same src: lanes (and so
    // ids) may be reused by consecutive sweeps in one file, and the
    // emission contract guarantees a cause precedes its effects — the
    // nearest one looking backward is the instance in scope.
    bool found = false;
    for (std::size_t i = cur; i-- > 0;) {
      if (records[i].id == cause && records[i].src == records[cur].src) {
        cur = i;
        out.chain.push_back(cur);
        found = true;
        break;
      }
    }
    if (!found) {
      out.dangling = cause;
      break;
    }
  }
  return out;
}

std::vector<AuditRow> audit(const std::vector<DecisionRecord>& records) {
  std::map<std::pair<std::string, std::string>, AuditRow> groups;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const DecisionRecord& r = records[i];
    AuditRow& row = groups[{r.src, r.rule}];
    if (row.count == 0) {
      row.src = r.src;
      row.rule = r.rule;
    }
    ++row.count;
    if (r.cause.empty()) {
      ++row.roots;
      ++row.resolved;  // a root is trivially a complete chain
    } else if (explain_record(records, i).complete()) {
      ++row.resolved;
    } else {
      ++row.dangling;
    }
  }
  std::vector<AuditRow> out;
  out.reserve(groups.size());
  for (auto& [key, row] : groups) out.push_back(std::move(row));
  return out;
}

std::vector<MonotoneViolation> counter_monotone(const TraceData& trace,
                                                const std::string& track) {
  DCS_REQUIRE(!track.empty(), "monotone check needs a track name");
  std::map<std::pair<std::string, std::uint32_t>,
           std::vector<std::pair<double, double>>>
      tracks;
  for (const QueryEvent& e : trace.events) {
    if (e.ph != 'C' || !e.has_value || e.name != track) continue;
    tracks[{e.src, e.lane}].emplace_back(e.ts_us, e.value);
  }
  std::vector<MonotoneViolation> out;
  for (auto& [key, samples] : tracks) {
    std::stable_sort(
        samples.begin(), samples.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (samples[i].second < samples[i - 1].second) {
        MonotoneViolation v;
        v.src = key.first;
        v.lane = key.second;
        v.ts_us = samples[i].first;
        v.prev = samples[i - 1].second;
        v.value = samples[i].second;
        out.push_back(std::move(v));
      }
    }
  }
  return out;
}

void write_scope_csv(std::ostream& out, const std::vector<ScopeStat>& stats) {
  out << "src,name,count,total_us,mean_us,min_us,max_us\n";
  for (const ScopeStat& s : stats) {
    out << s.src << "," << s.name << "," << s.count << ","
        << json::number_to_string(s.total_us) << ","
        << json::number_to_string(s.mean_us()) << ","
        << json::number_to_string(s.min_us) << ","
        << json::number_to_string(s.max_us) << "\n";
  }
}

void write_counter_csv(std::ostream& out,
                       const std::vector<CounterStat>& stats) {
  out << "src,name,points,min,mean,max,last\n";
  for (const CounterStat& s : stats) {
    out << s.src << "," << s.name << "," << s.points << ","
        << json::number_to_string(s.min) << ","
        << json::number_to_string(s.mean) << ","
        << json::number_to_string(s.max) << ","
        << json::number_to_string(s.last) << "\n";
  }
}

void write_window_csv(std::ostream& out,
                      const std::vector<ThresholdWindow>& windows) {
  out << "src,lane,start_us,end_us,duration_us,extreme\n";
  for (const ThresholdWindow& w : windows) {
    out << w.src << "," << w.lane << ","
        << json::number_to_string(w.start_us) << ","
        << json::number_to_string(w.end_us) << ","
        << json::number_to_string(w.duration_us()) << ","
        << json::number_to_string(w.extreme) << "\n";
  }
}

void write_decision_csv(std::ostream& out,
                        const std::vector<DecisionRecord>& records) {
  out << "src,lane,ts_us,rule,id,cause\n";
  for (const DecisionRecord& r : records) {
    out << r.src << "," << r.lane << "," << json::number_to_string(r.ts_us)
        << "," << r.rule << "," << r.id << "," << r.cause << "\n";
  }
}

void write_explain_csv(std::ostream& out,
                       const std::vector<DecisionRecord>& records,
                       const std::vector<ExplainChain>& chains) {
  out << "target,depth,rule,id,cause,ts_us,src,lane,status\n";
  for (const ExplainChain& c : chains) {
    if (c.chain.empty()) continue;
    const DecisionRecord& tgt = records[c.chain.front()];
    for (std::size_t depth = 0; depth < c.chain.size(); ++depth) {
      const DecisionRecord& r = records[c.chain[depth]];
      const bool last = depth + 1 == c.chain.size();
      const char* status =
          !last ? "ok" : (c.complete() ? "root" : "unresolved");
      out << tgt.id << "," << depth << "," << r.rule << "," << r.id << ","
          << r.cause << "," << json::number_to_string(r.ts_us) << "," << r.src
          << "," << r.lane << "," << status << "\n";
    }
    if (!c.complete()) {
      // The id the walk could not find, as an explicit terminal row.
      out << tgt.id << "," << c.chain.size() << ",," << c.dangling << ",,"
          << json::number_to_string(tgt.ts_us) << "," << tgt.src << ","
          << tgt.lane << ",missing\n";
    }
  }
}

void write_audit_csv(std::ostream& out, const std::vector<AuditRow>& rows) {
  out << "src,rule,count,roots,resolved,dangling\n";
  for (const AuditRow& r : rows) {
    out << r.src << "," << r.rule << "," << r.count << "," << r.roots << ","
        << r.resolved << "," << r.dangling << "\n";
  }
}

namespace {

using obs::detail::render_string;

/// Re-renders a captured canonical literal as JSON: numbers and bools pass
/// through raw, everything else is a quoted string.
std::string render_literal(const std::string& literal) {
  if (literal == "true" || literal == "false") return literal;
  char* end = nullptr;
  std::strtod(literal.c_str(), &end);
  if (!literal.empty() && end != nullptr && *end == '\0') return literal;
  return render_string(literal);
}

void write_args_object(std::ostream& out, const QueryEvent& e) {
  out << "{";
  bool first = true;
  for (const auto& [key, value] : e.args) {
    if (!first) out << ",";
    first = false;
    out << render_string(key) << ":" << render_literal(value);
  }
  out << "}";
}

}  // namespace

void write_scope_jsonl(std::ostream& out,
                       const std::vector<ScopeStat>& stats) {
  for (const ScopeStat& s : stats) {
    out << "{\"src\":" << render_string(s.src)
        << ",\"name\":" << render_string(s.name) << ",\"count\":" << s.count
        << ",\"total_us\":" << json::number_to_string(s.total_us)
        << ",\"mean_us\":" << json::number_to_string(s.mean_us())
        << ",\"min_us\":" << json::number_to_string(s.min_us)
        << ",\"max_us\":" << json::number_to_string(s.max_us) << "}\n";
  }
}

void write_counter_jsonl(std::ostream& out,
                         const std::vector<CounterStat>& stats) {
  for (const CounterStat& s : stats) {
    out << "{\"src\":" << render_string(s.src)
        << ",\"name\":" << render_string(s.name) << ",\"points\":" << s.points
        << ",\"min\":" << json::number_to_string(s.min)
        << ",\"mean\":" << json::number_to_string(s.mean)
        << ",\"max\":" << json::number_to_string(s.max)
        << ",\"last\":" << json::number_to_string(s.last) << "}\n";
  }
}

void write_window_jsonl(std::ostream& out,
                        const std::vector<ThresholdWindow>& windows) {
  for (const ThresholdWindow& w : windows) {
    out << "{\"src\":" << render_string(w.src) << ",\"lane\":" << w.lane
        << ",\"start_us\":" << json::number_to_string(w.start_us)
        << ",\"end_us\":" << json::number_to_string(w.end_us)
        << ",\"duration_us\":" << json::number_to_string(w.duration_us())
        << ",\"extreme\":" << json::number_to_string(w.extreme) << "}\n";
  }
}

void write_decision_jsonl(std::ostream& out, const TraceData& trace,
                          const std::vector<DecisionRecord>& records) {
  for (const DecisionRecord& r : records) {
    out << "{\"src\":" << render_string(r.src) << ",\"lane\":" << r.lane
        << ",\"ts_us\":" << json::number_to_string(r.ts_us)
        << ",\"rule\":" << render_string(r.rule)
        << ",\"id\":" << render_string(r.id)
        << ",\"cause\":" << render_string(r.cause) << ",\"args\":";
    write_args_object(out, trace.events[r.event_index]);
    out << "}\n";
  }
}

void write_explain_jsonl(std::ostream& out, const TraceData& trace,
                         const std::vector<DecisionRecord>& records,
                         const std::vector<ExplainChain>& chains) {
  for (const ExplainChain& c : chains) {
    if (c.chain.empty()) continue;
    const DecisionRecord& tgt = records[c.chain.front()];
    for (std::size_t depth = 0; depth < c.chain.size(); ++depth) {
      const DecisionRecord& r = records[c.chain[depth]];
      const bool last = depth + 1 == c.chain.size();
      const char* status =
          !last ? "ok" : (c.complete() ? "root" : "unresolved");
      out << "{\"target\":" << render_string(tgt.id) << ",\"depth\":" << depth
          << ",\"rule\":" << render_string(r.rule)
          << ",\"id\":" << render_string(r.id)
          << ",\"cause\":" << render_string(r.cause)
          << ",\"ts_us\":" << json::number_to_string(r.ts_us)
          << ",\"src\":" << render_string(r.src) << ",\"lane\":" << r.lane
          << ",\"status\":\"" << status << "\",\"args\":";
      write_args_object(out, trace.events[r.event_index]);
      out << "}\n";
    }
    if (!c.complete()) {
      out << "{\"target\":" << render_string(tgt.id)
          << ",\"depth\":" << c.chain.size()
          << ",\"rule\":\"\",\"id\":" << render_string(c.dangling)
          << ",\"cause\":\"\",\"ts_us\":"
          << json::number_to_string(tgt.ts_us)
          << ",\"src\":" << render_string(tgt.src) << ",\"lane\":" << tgt.lane
          << ",\"status\":\"missing\",\"args\":{}}\n";
    }
  }
}

void write_audit_jsonl(std::ostream& out, const std::vector<AuditRow>& rows) {
  for (const AuditRow& r : rows) {
    out << "{\"src\":" << render_string(r.src)
        << ",\"rule\":" << render_string(r.rule) << ",\"count\":" << r.count
        << ",\"roots\":" << r.roots << ",\"resolved\":" << r.resolved
        << ",\"dangling\":" << r.dangling << "}\n";
  }
}

}  // namespace dcs::obs::query
