// Result reporting for sweeps: CSV tables (raw per-task rows and per-cell
// summaries), a machine-readable JSON summary, and BENCH_*.json perf
// records (wall time, runs/sec, thread count) so the repo accumulates a
// perf trajectory. Centralizes the per-bench CSV glue that used to be
// copy-pasted around `maybe_export_csv`.
#pragma once

#include <ostream>
#include <string>

#include "exp/aggregator.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "util/time_series.h"

namespace dcs::exp {

/// One CSV line per task: axis labels, replicate, seed, metric values.
void write_rows_csv(std::ostream& out, const SweepSpec& spec,
                    const SweepRun& run);

/// One CSV line per cell: axis labels plus per-metric statistics columns.
void write_summary_csv(std::ostream& out, const SweepSummary& summary);

/// Machine-readable summary: sweep name, axes, per-cell statistics, and the
/// perf record of the producing run.
void write_summary_json(std::ostream& out, const SweepSummary& summary);

/// BENCH_*-style perf record: {"bench", "wall_seconds", "tasks",
/// "runs_per_second", "threads", "cells", "replicates"} plus the
/// provenance of partitioned runs ("shard": "i/N", "executed_tasks",
/// "resumed_tasks" — 0/1 and 0 for a plain single-process run). When `scopes` is
/// non-null a "scopes" object is appended with per-scope wall-clock
/// aggregates (count, total_us, max_us, mean_us). When `folded` is non-null
/// and non-empty a "folded_stacks" object is appended mapping
/// "lane;outer;inner" stacks to sampling-profiler hit counts.
void write_perf_record_json(std::ostream& out, const SweepSummary& summary,
                            const obs::ProfileSummary* scopes = nullptr,
                            const obs::FoldedStacks* folded = nullptr);

/// Folds a sweep summary into a metrics registry: one gauge per
/// (cell, metric, stat in {mean, min, max}), named after the sweep metric
/// and labeled with the sweep name, the cell's axis labels, and the stat.
void metrics_from_summary(obs::MetricsRegistry& registry,
                          const SweepSummary& summary);

/// Writes `<dir>/<name>.csv` as "time_s,value" rows (the old per-bench
/// `maybe_export_csv` glue, deduplicated here). Returns false (after a
/// diagnostic on `diag`) when the file cannot be opened or written.
bool export_time_series_csv(const std::string& dir, const std::string& name,
                            const TimeSeries& series,
                            std::ostream* diag = nullptr);

/// Writes `<dir>/<name>_rows.csv`, `<dir>/<name>_summary.csv` and
/// `<dir>/<name>_summary.json` for one sweep. Returns false when any of
/// them cannot be opened or written (the others are still written).
bool export_sweep(const std::string& dir, const SweepSpec& spec,
                  const SweepRun& run, const SweepSummary& summary,
                  std::ostream* diag = nullptr);

/// Writes `<dir>/BENCH_<name>.json`. With folded stacks, also writes
/// `<dir>/<name>_stacks.folded` in the textual flame-graph format. Returns
/// false when a file cannot be opened or written.
bool export_perf_record(const std::string& dir, const SweepSummary& summary,
                        std::ostream* diag = nullptr,
                        const obs::ProfileSummary* scopes = nullptr,
                        const obs::FoldedStacks* folded = nullptr);

}  // namespace dcs::exp
