// Offline trace analysis CLI over telemetry-schema JSONL streams (a
// bench's `*_trace.jsonl`, a telemetry= stream, the dispatcher's merged
// timeline.jsonl). Usage:
//
//   trace_query export    <stream> [--chrome=PATH] [--perfetto=PATH]
//   trace_query scopes    <trace> [output] [--require-rows=N]
//   trace_query counters  <trace> [output] [--require-rows=N]
//   trace_query threshold <trace> --track=NAME --threshold=V
//                         [--above | --below] [--min-duration-us=V]
//                         [output] [--require-rows=N]
//   trace_query slo       <trace> --slo-ms=V [--min-duration-us=V]
//                         [output] [--require-rows=N]
//   trace_query decisions <trace> [--rule=NAME] [output] [--require-rows=N]
//   trace_query explain   <trace> [--id=ID | --rule=NAME] [output]
//                         [--require-rows=N] [--require-resolved]
//   trace_query audit     <trace> [output] [--require-rows=N]
//                         [--require-resolved] [--require-rule=NAME[:N]]
//                         [--require-monotone=TRACK]
//
//   output: --csv[=path] | --jsonl[=path]   (default: readable table)
//
// `export` renders a stream's Chrome trace-event JSON (Perfetto UI /
// chrome://tracing) and Perfetto protobuf (trace_processor SQL) views
// through the exp/timeline merger — the only place those encodings are
// produced.
//
// `scopes` prints duration stats per (src, span name); `counters` prints
// value stats per (src, counter track); `threshold` extracts the maximal
// windows during which a counter track was below (default) or above a
// threshold — e.g. `--track=cb_trip_margin_s --threshold=0.5 --below`
// finds the intervals where the circuit-breaker margin ran thin. `slo` is
// sugar for `threshold --track=serving_window_p99_ms --above`, extracting
// SLO-violation intervals from the serving layer's windowed p99 track.
//
// The decision-provenance commands work on cat="decision" instant events
// (obs/decision.h). `decisions` lists every DecisionRecord (optionally
// filtered by --rule); `explain` reconstructs the causal chain — the
// record, its cause, its cause's cause, back to a root — for one record
// (--id=d0-5) or every record of a rule (--rule=NAME; default
// sprint-onset); `audit` prints the per-(src, rule) inventory with
// chain-resolution counts, plus (table view) a budget-burn summary from
// the slo_* counter tracks when present.
//
// CI assertions (exit 1 when unmet): `--require-rows=N` needs >= N result
// rows; `--require-resolved` needs every reconstructed chain to reach a
// root (no dangling cause id); `--require-rule=NAME[:N]` needs >= N
// (default 1) records of that rule; `--require-monotone=TRACK` needs the
// counter track to be non-decreasing per (src, lane).
//
// `--csv` / `--jsonl` switch to byte-stable machine encodings (stdout, or
// a file with `=path`) for diffing across runs.
//
// Exit codes: 0 = ok, 1 = assertion unmet, 2 = usage/input error.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exp/timeline.h"
#include "obs/query.h"
#include "util/json.h"

namespace {

namespace query = dcs::obs::query;

struct Args {
  std::string command;
  std::string trace;
  bool csv = false;
  bool jsonl = false;
  std::string out_path;  // empty = stdout
  std::string track;
  std::optional<double> threshold;
  bool below = true;
  double min_duration_us = 0.0;
  std::optional<double> slo_ms;
  std::size_t require_rows = 0;
  std::string id;
  std::string rule;
  bool require_resolved = false;
  std::vector<std::string> require_rule;      // NAME or NAME:N
  std::vector<std::string> require_monotone;  // counter track names
  std::string chrome;    // export: Chrome JSON output path
  std::string perfetto;  // export: Perfetto protobuf output path
};

int usage() {
  std::cerr
      << "usage: trace_query "
         "<export|scopes|counters|threshold|slo|decisions|explain|audit> "
         "<trace> [options]\n"
         "  --chrome=PATH          Chrome trace JSON output (export)\n"
         "  --perfetto=PATH        Perfetto protobuf output (export)\n"
         "  --csv[=path]           CSV output (default: readable table)\n"
         "  --jsonl[=path]         JSONL output\n"
         "  --track=NAME           counter track (threshold)\n"
         "  --threshold=V          threshold value (threshold)\n"
         "  --below | --above      predicate direction (default --below)\n"
         "  --min-duration-us=V    drop windows shorter than V\n"
         "  --slo-ms=V             p99 target in ms (slo)\n"
         "  --id=ID                decision record to explain\n"
         "  --rule=NAME            decision rule filter (decisions, explain)\n"
         "  --require-rows=N       exit 1 unless >= N result rows\n"
         "  --require-resolved     exit 1 on any dangling cause id\n"
         "  --require-rule=NAME[:N] exit 1 unless >= N records of NAME\n"
         "  --require-monotone=TRACK exit 1 if TRACK ever decreases\n";
  return 2;
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && end != text.c_str();
}

bool parse(int argc, char** argv, Args* args) {
  if (argc < 3) return false;
  args->command = argv[1];
  args->trace = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix,
                              std::string* value) {
      if (arg.rfind(prefix, 0) != 0) return false;
      *value = arg.substr(prefix.size());
      return true;
    };
    std::string value;
    double number = 0.0;
    if (arg == "--csv") {
      args->csv = true;
    } else if (value_of("--csv=", &value)) {
      args->csv = true;
      args->out_path = value;
    } else if (arg == "--jsonl") {
      args->jsonl = true;
    } else if (value_of("--jsonl=", &value)) {
      args->jsonl = true;
      args->out_path = value;
    } else if (value_of("--track=", &value)) {
      args->track = value;
    } else if (value_of("--threshold=", &value) &&
               parse_double(value, &number)) {
      args->threshold = number;
    } else if (arg == "--below") {
      args->below = true;
    } else if (arg == "--above") {
      args->below = false;
    } else if (value_of("--min-duration-us=", &value) &&
               parse_double(value, &number)) {
      args->min_duration_us = number;
    } else if (value_of("--slo-ms=", &value) && parse_double(value, &number)) {
      args->slo_ms = number;
    } else if (value_of("--require-rows=", &value) &&
               parse_double(value, &number)) {
      args->require_rows = static_cast<std::size_t>(number);
    } else if (value_of("--id=", &value)) {
      args->id = value;
    } else if (value_of("--rule=", &value)) {
      args->rule = value;
    } else if (arg == "--require-resolved") {
      args->require_resolved = true;
    } else if (value_of("--require-rule=", &value)) {
      args->require_rule.push_back(value);
    } else if (value_of("--require-monotone=", &value)) {
      args->require_monotone.push_back(value);
    } else if (value_of("--chrome=", &value)) {
      args->chrome = value;
    } else if (value_of("--perfetto=", &value)) {
      args->perfetto = value;
    } else {
      std::cerr << "trace_query: unknown option " << arg << "\n";
      return false;
    }
  }
  if (args->csv && args->jsonl) {
    std::cerr << "trace_query: --csv and --jsonl are mutually exclusive\n";
    return false;
  }
  return true;
}

/// Resolves the machine-output destination; the table view always goes to
/// stdout.
std::ostream* open_out(const Args& args, std::ofstream* file) {
  if ((!args.csv && !args.jsonl) || args.out_path.empty()) return &std::cout;
  file->open(args.out_path, std::ios::trunc);
  if (!*file) {
    std::cerr << "trace_query: cannot write " << args.out_path << "\n";
    return nullptr;
  }
  return file;
}

std::string fmt(double v) { return dcs::json::number_to_string(v); }

std::string tag(const std::string& src, const std::string& name) {
  return src.empty() ? name : src + "/" + name;
}

void print_scopes(std::ostream& out, const std::vector<query::ScopeStat>& s) {
  for (const query::ScopeStat& stat : s) {
    out << tag(stat.src, stat.name) << ": count=" << stat.count
        << " total_us=" << fmt(stat.total_us)
        << " mean_us=" << fmt(stat.mean_us())
        << " min_us=" << fmt(stat.min_us) << " max_us=" << fmt(stat.max_us)
        << "\n";
  }
}

void print_counters(std::ostream& out,
                    const std::vector<query::CounterStat>& s) {
  for (const query::CounterStat& stat : s) {
    out << tag(stat.src, stat.name) << ": points=" << stat.points
        << " min=" << fmt(stat.min) << " mean=" << fmt(stat.mean)
        << " max=" << fmt(stat.max) << " last=" << fmt(stat.last) << "\n";
  }
}

void print_windows(std::ostream& out,
                   const std::vector<query::ThresholdWindow>& windows) {
  for (const query::ThresholdWindow& w : windows) {
    out << (w.src.empty() ? std::string("trace") : w.src) << "/lane"
        << w.lane << ": ["
        << fmt(w.start_us) << " us, " << fmt(w.end_us) << " us] duration_us="
        << fmt(w.duration_us()) << " extreme=" << fmt(w.extreme) << "\n";
  }
}

void print_decisions(std::ostream& out,
                     const std::vector<query::DecisionRecord>& records) {
  for (const query::DecisionRecord& r : records) {
    out << tag(r.src, r.id) << " t=" << fmt(r.ts_us / 1e6) << "s " << r.rule;
    if (!r.cause.empty()) out << " <- " << r.cause;
    out << "\n";
  }
}

void print_explain(std::ostream& out,
                   const std::vector<query::DecisionRecord>& records,
                   const std::vector<query::ExplainChain>& chains) {
  for (const query::ExplainChain& c : chains) {
    if (c.chain.empty()) continue;
    const query::DecisionRecord& tgt = records[c.chain.front()];
    out << tag(tgt.src, tgt.id) << " " << tgt.rule << ":\n";
    for (std::size_t depth = 0; depth < c.chain.size(); ++depth) {
      const query::DecisionRecord& r = records[c.chain[depth]];
      out << "  ";
      for (std::size_t j = 0; j < depth; ++j) out << "  ";
      out << (depth == 0 ? "" : "<- ") << r.rule << " (" << r.id
          << ") t=" << fmt(r.ts_us / 1e6) << "s\n";
    }
    if (!c.complete()) {
      out << "  ";
      for (std::size_t j = 0; j < c.chain.size(); ++j) out << "  ";
      out << "<- MISSING " << c.dangling << "\n";
    }
  }
}

void print_audit(std::ostream& out, const std::vector<query::AuditRow>& rows,
                 const std::vector<query::CounterStat>& counters) {
  for (const query::AuditRow& r : rows) {
    out << tag(r.src, r.rule) << ": count=" << r.count
        << " roots=" << r.roots << " resolved=" << r.resolved
        << " dangling=" << r.dangling << "\n";
  }
  // Budget-burn summary when the trace carries the error-budget tracks.
  for (const query::CounterStat& c : counters) {
    if (c.name != "slo_budget_remaining" && c.name != "slo_burn_fast" &&
        c.name != "slo_burn_slow" && c.name != "slo_budget_violations") {
      continue;
    }
    out << tag(c.src, c.name) << ": last=" << fmt(c.last)
        << " min=" << fmt(c.min) << " max=" << fmt(c.max) << "\n";
  }
}

int finish(const Args& args, std::size_t rows) {
  if (rows < args.require_rows) {
    std::cerr << "trace_query: " << rows << " row(s) < required "
              << args.require_rows << "\n";
    return 1;
  }
  return 0;
}

/// Applies the decision/counter assertions shared by explain and audit.
/// Returns 0 when every assertion holds.
int check_assertions(const Args& args, const query::TraceData& trace,
                     const std::vector<query::DecisionRecord>& records,
                     std::size_t dangling_chains) {
  int rc = 0;
  if (args.require_resolved && dangling_chains > 0) {
    std::cerr << "trace_query: " << dangling_chains
              << " chain(s) with a dangling cause id\n";
    rc = 1;
  }
  for (const std::string& spec : args.require_rule) {
    std::string name = spec;
    std::size_t want = 1;
    const std::size_t colon = spec.rfind(':');
    if (colon != std::string::npos) {
      double n = 0.0;
      if (parse_double(spec.substr(colon + 1), &n)) {
        name = spec.substr(0, colon);
        want = static_cast<std::size_t>(n);
      }
    }
    std::size_t have = 0;
    for (const query::DecisionRecord& r : records) {
      if (r.rule == name) ++have;
    }
    if (have < want) {
      std::cerr << "trace_query: rule " << name << ": " << have
                << " record(s) < required " << want << "\n";
      rc = 1;
    }
  }
  for (const std::string& track : args.require_monotone) {
    const std::vector<query::MonotoneViolation> violations =
        query::counter_monotone(trace, track);
    for (const query::MonotoneViolation& v : violations) {
      std::cerr << "trace_query: " << tag(v.src, track) << " lane " << v.lane
                << " decreased " << fmt(v.prev) << " -> " << fmt(v.value)
                << " at ts_us=" << fmt(v.ts_us) << "\n";
    }
    if (!violations.empty()) rc = 1;
  }
  return rc;
}

/// `export`: one stream through the timeline merger, untagged so the views
/// keep plain "sim"/"wall" process names.
int run_export(const Args& args) {
  if (args.chrome.empty() && args.perfetto.empty()) {
    std::cerr << "trace_query: export needs --chrome=PATH and/or "
                 "--perfetto=PATH\n";
    return 2;
  }
  if (!std::ifstream(args.trace)) {
    std::cerr << "trace_query: cannot read trace " << args.trace << "\n";
    return 2;
  }
  dcs::exp::TimelineOutputs outputs;
  outputs.chrome = args.chrome;
  outputs.perfetto = args.perfetto;
  const dcs::exp::TimelineSummary summary =
      dcs::exp::merge_streams({{args.trace, ""}}, outputs);
  if (!summary.ok()) {
    std::cerr << "trace_query: " << summary.error << "\n";
    return 2;
  }
  return finish(args, summary.events);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) return usage();
  if (args.command == "export") return run_export(args);

  try {
    const query::TraceData trace = query::load_trace(args.trace);
    std::ofstream file;
    std::ostream* out = open_out(args, &file);
    if (out == nullptr) return 2;

    if (args.command == "scopes") {
      const std::vector<query::ScopeStat> stats = query::scope_stats(trace);
      if (args.csv) {
        query::write_scope_csv(*out, stats);
      } else if (args.jsonl) {
        query::write_scope_jsonl(*out, stats);
      } else {
        print_scopes(*out, stats);
      }
      return finish(args, stats.size());
    }
    if (args.command == "counters") {
      const std::vector<query::CounterStat> stats =
          query::counter_stats(trace);
      if (args.csv) {
        query::write_counter_csv(*out, stats);
      } else if (args.jsonl) {
        query::write_counter_jsonl(*out, stats);
      } else {
        print_counters(*out, stats);
      }
      return finish(args, stats.size());
    }
    if (args.command == "threshold" || args.command == "slo") {
      query::ThresholdQuery q;
      if (args.command == "slo") {
        if (!args.slo_ms.has_value()) {
          std::cerr << "trace_query: slo needs --slo-ms=V\n";
          return 2;
        }
        q.track = "serving_window_p99_ms";
        q.threshold = *args.slo_ms;
        q.below = false;
      } else {
        if (args.track.empty() || !args.threshold.has_value()) {
          std::cerr
              << "trace_query: threshold needs --track=NAME --threshold=V\n";
          return 2;
        }
        q.track = args.track;
        q.threshold = *args.threshold;
        q.below = args.below;
      }
      q.min_duration_us = args.min_duration_us;
      const std::vector<query::ThresholdWindow> windows =
          query::threshold_windows(trace, q);
      if (args.csv) {
        query::write_window_csv(*out, windows);
      } else if (args.jsonl) {
        query::write_window_jsonl(*out, windows);
      } else {
        print_windows(*out, windows);
      }
      return finish(args, windows.size());
    }
    if (args.command == "decisions") {
      std::vector<query::DecisionRecord> records =
          query::decision_records(trace);
      if (!args.rule.empty()) {
        std::erase_if(records, [&](const query::DecisionRecord& r) {
          return r.rule != args.rule;
        });
      }
      if (args.csv) {
        query::write_decision_csv(*out, records);
      } else if (args.jsonl) {
        query::write_decision_jsonl(*out, trace, records);
      } else {
        print_decisions(*out, records);
      }
      return finish(args, records.size());
    }
    if (args.command == "explain") {
      const std::vector<query::DecisionRecord> records =
          query::decision_records(trace);
      // Targets: one record by id, or every record of a rule (the default
      // rule answers the canonical question "why did each sprint start").
      const std::string rule = args.rule.empty() ? "sprint-onset" : args.rule;
      std::vector<std::size_t> targets;
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (!args.id.empty() ? records[i].id == args.id
                             : records[i].rule == rule) {
          targets.push_back(i);
        }
      }
      if (!args.id.empty() && targets.empty()) {
        std::cerr << "trace_query: no decision record with id " << args.id
                  << "\n";
        return 2;
      }
      std::vector<query::ExplainChain> chains;
      chains.reserve(targets.size());
      std::size_t dangling = 0;
      for (const std::size_t t : targets) {
        chains.push_back(query::explain_record(records, t));
        if (!chains.back().complete()) ++dangling;
      }
      if (args.csv) {
        query::write_explain_csv(*out, records, chains);
      } else if (args.jsonl) {
        query::write_explain_jsonl(*out, trace, records, chains);
      } else {
        print_explain(*out, records, chains);
      }
      const int rc = check_assertions(args, trace, records, dangling);
      if (rc != 0) return rc;
      return finish(args, chains.size());
    }
    if (args.command == "audit") {
      const std::vector<query::DecisionRecord> records =
          query::decision_records(trace);
      const std::vector<query::AuditRow> rows = query::audit(records);
      if (args.csv) {
        query::write_audit_csv(*out, rows);
      } else if (args.jsonl) {
        query::write_audit_jsonl(*out, rows);
      } else {
        print_audit(*out, rows, query::counter_stats(trace));
      }
      std::size_t dangling = 0;
      for (const query::AuditRow& r : rows) dangling += r.dangling;
      const int rc = check_assertions(args, trace, records, dangling);
      if (rc != 0) return rc;
      return finish(args, rows.size());
    }
    std::cerr << "trace_query: unknown command " << args.command << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "trace_query: " << e.what() << "\n";
    return 2;
  }
}
