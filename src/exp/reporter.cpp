#include "exp/reporter.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/csv.h"

namespace dcs::exp {
namespace {

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_number(double v) {
  // JSON has no inf/nan literals; report them as null.
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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
  return out;
}

/// Opens `path`, runs `write` on it and closes it. A failure at open or
/// during the write (e.g. a full disk, seen when the close flushes) prints
/// "cannot write <path>" to `diag` and returns false.
template <class Writer>
bool write_file(const std::string& path, std::ostream* diag, Writer&& write) {
  std::ofstream out(path);
  if (out) {
    write(out);
    out.close();
  }
  if (!out) {
    if (diag != nullptr) *diag << "cannot write " << path << "\n";
    return false;
  }
  if (diag != nullptr) *diag << "[exp] wrote " << path << "\n";
  return true;
}

}  // namespace

void write_rows_csv(std::ostream& out, const SweepSpec& spec,
                    const SweepRun& run) {
  CsvWriter csv(out);
  std::vector<std::string> header;
  for (const Axis& axis : spec.axes()) header.push_back(axis.name);
  header.push_back("replicate");
  header.push_back("seed");
  for (const std::string& m : run.metrics) header.push_back(m);
  csv.write_row(header);

  const std::vector<SweepSpec::Task> tasks = spec.tasks();
  for (const SweepSpec::Task& task : tasks) {
    // Sharded / partially resumed runs leave unexecuted slots empty; their
    // rows live in other shards' files until merged.
    if (run.rows[task.index].empty()) continue;
    std::vector<std::string> row;
    for (std::size_t a = 0; a < spec.axes().size(); ++a) {
      row.push_back(spec.label(task, a));
    }
    row.push_back(std::to_string(task.replicate));
    row.push_back(std::to_string(task.seed));
    for (const double v : run.rows[task.index]) row.push_back(format_value(v));
    csv.write_row(row);
  }
}

void write_summary_csv(std::ostream& out, const SweepSummary& summary) {
  CsvWriter csv(out);
  std::vector<std::string> header;
  for (const Axis& axis : summary.axes) header.push_back(axis.name);
  header.push_back("n");
  for (const std::string& m : summary.metrics) {
    for (const char* stat :
         {"mean", "stddev", "min", "max", "p50", "p95", "ci95"}) {
      header.push_back(m + "_" + stat);
    }
  }
  csv.write_row(header);

  for (const CellSummary& cell : summary.cells) {
    std::vector<std::string> row = cell.labels;
    row.push_back(std::to_string(summary.replicates));
    for (const MetricSummary& ms : cell.metrics) {
      for (const double v :
           {ms.mean, ms.stddev, ms.min, ms.max, ms.p50, ms.p95, ms.ci95}) {
        row.push_back(format_value(v));
      }
    }
    csv.write_row(row);
  }
}

void write_summary_json(std::ostream& out, const SweepSummary& summary) {
  out << "{\n  \"sweep\": " << json_escape(summary.name) << ",\n  \"axes\": [";
  for (std::size_t a = 0; a < summary.axes.size(); ++a) {
    const Axis& axis = summary.axes[a];
    out << (a == 0 ? "" : ", ") << "{\"name\": " << json_escape(axis.name)
        << ", \"labels\": [";
    for (std::size_t i = 0; i < axis.labels.size(); ++i) {
      out << (i == 0 ? "" : ", ") << json_escape(axis.labels[i]);
    }
    out << "]}";
  }
  out << "],\n  \"metrics\": [";
  for (std::size_t m = 0; m < summary.metrics.size(); ++m) {
    out << (m == 0 ? "" : ", ") << json_escape(summary.metrics[m]);
  }
  out << "],\n  \"replicates\": " << summary.replicates
      << ",\n  \"perf\": {\"wall_seconds\": " << json_number(summary.wall_seconds)
      << ", \"tasks\": " << summary.task_count
      << ", \"runs_per_second\": " << json_number(summary.tasks_per_second())
      << ", \"threads\": " << summary.threads_used << "},\n  \"cells\": [\n";
  for (std::size_t c = 0; c < summary.cells.size(); ++c) {
    const CellSummary& cell = summary.cells[c];
    out << "    {\"labels\": [";
    for (std::size_t a = 0; a < cell.labels.size(); ++a) {
      out << (a == 0 ? "" : ", ") << json_escape(cell.labels[a]);
    }
    out << "], \"stats\": {";
    for (std::size_t m = 0; m < summary.metrics.size(); ++m) {
      const MetricSummary& ms = cell.metrics[m];
      out << (m == 0 ? "" : ", ") << json_escape(summary.metrics[m])
          << ": {\"n\": " << ms.count << ", \"mean\": " << json_number(ms.mean)
          << ", \"stddev\": " << json_number(ms.stddev)
          << ", \"min\": " << json_number(ms.min)
          << ", \"max\": " << json_number(ms.max)
          << ", \"p50\": " << json_number(ms.p50)
          << ", \"p95\": " << json_number(ms.p95)
          << ", \"ci95\": " << json_number(ms.ci95) << "}";
    }
    out << "}}" << (c + 1 == summary.cells.size() ? "" : ",") << "\n";
  }
  out << "  ]\n}\n";
}

void write_perf_record_json(std::ostream& out, const SweepSummary& summary,
                            const obs::ProfileSummary* scopes,
                            const obs::FoldedStacks* folded) {
  out << "{\"bench\": " << json_escape(summary.name)
      << ", \"wall_seconds\": " << json_number(summary.wall_seconds)
      << ", \"tasks\": " << summary.task_count
      << ", \"runs_per_second\": " << json_number(summary.tasks_per_second())
      << ", \"threads\": " << summary.threads_used
      << ", \"cells\": " << summary.cells.size()
      << ", \"replicates\": " << summary.replicates
      << ", \"shard\": \"" << summary.shard_index << "/"
      << summary.shard_count << "\", \"executed_tasks\": "
      << summary.executed_tasks
      << ", \"resumed_tasks\": " << summary.resumed_tasks;
  if (scopes != nullptr && !scopes->empty()) {
    out << ", \"scopes\": {";
    bool first = true;
    for (const auto& [name, stats] : *scopes) {
      // json_number throughout: raw operator<< would truncate to 6
      // significant figures and emit bare inf/nan, which breaks the
      // util/json parse in perf_gate.
      out << (first ? "" : ", ") << json_escape(name) << ": {\"count\": "
          << stats.count << ", \"total_us\": " << json_number(stats.total_us)
          << ", \"max_us\": " << json_number(stats.max_us)
          << ", \"mean_us\": " << json_number(stats.mean_us()) << "}";
      first = false;
    }
    out << "}";
  }
  if (folded != nullptr && !folded->empty()) {
    out << ", \"folded_stacks\": {";
    bool first = true;
    for (const auto& [stack, count] : *folded) {
      out << (first ? "" : ", ") << json_escape(stack) << ": " << count;
      first = false;
    }
    out << "}";
  }
  out << "}\n";
}

void metrics_from_summary(obs::MetricsRegistry& registry,
                          const SweepSummary& summary) {
  for (const CellSummary& cell : summary.cells) {
    obs::Labels base{{"sweep", summary.name}};
    for (std::size_t a = 0; a < summary.axes.size(); ++a) {
      base.emplace_back(summary.axes[a].name, cell.labels[a]);
    }
    for (std::size_t m = 0; m < summary.metrics.size(); ++m) {
      const MetricSummary& ms = cell.metrics[m];
      const struct {
        const char* stat;
        double value;
      } stats[] = {{"mean", ms.mean}, {"min", ms.min}, {"max", ms.max}};
      for (const auto& s : stats) {
        obs::Labels labels = base;
        labels.emplace_back("stat", s.stat);
        registry.gauge(summary.metrics[m], labels).set(s.value);
      }
    }
  }
}

bool export_time_series_csv(const std::string& dir, const std::string& name,
                            const TimeSeries& series, std::ostream* diag) {
  return write_file(dir + "/" + name + ".csv", diag, [&](std::ostream& out) {
    CsvWriter csv(out);
    csv.write_row({"time_s", "value"});
    for (const Sample& s : series.samples()) {
      csv.write_numeric_row({s.time.sec(), s.value});
    }
  });
}

bool export_sweep(const std::string& dir, const SweepSpec& spec,
                  const SweepRun& run, const SweepSummary& summary,
                  std::ostream* diag) {
  const std::string base = dir + "/" + spec.name();
  // Every file is attempted even after one fails.
  bool ok = write_file(base + "_rows.csv", diag, [&](std::ostream& out) {
    write_rows_csv(out, spec, run);
  });
  ok = write_file(base + "_summary.csv", diag,
                  [&](std::ostream& out) { write_summary_csv(out, summary); }) &&
       ok;
  ok = write_file(base + "_summary.json", diag,
                  [&](std::ostream& out) { write_summary_json(out, summary); }) &&
       ok;
  return ok;
}

bool export_perf_record(const std::string& dir, const SweepSummary& summary,
                        std::ostream* diag, const obs::ProfileSummary* scopes,
                        const obs::FoldedStacks* folded) {
  if (!write_file(dir + "/BENCH_" + summary.name + ".json", diag,
                  [&](std::ostream& out) {
                    write_perf_record_json(out, summary, scopes, folded);
                  })) {
    return false;
  }
  if (folded == nullptr || folded->empty()) return true;
  return write_file(dir + "/" + summary.name + "_stacks.folded", diag,
                    [&](std::ostream& out) { obs::write_folded(out, *folded); });
}

}  // namespace dcs::exp
