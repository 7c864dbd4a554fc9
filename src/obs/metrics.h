// Labeled metrics registry: counters (monotone), gauges (last value) and
// fixed-bucket histograms, snapshotable to CSV, JSON and a Prometheus-style
// text format.
//
// Metrics are identified by (name, label set); asking for the same identity
// returns the same instrument, so call sites need no registration phase.
// The registry iterates in deterministic (name, labels) order, so every
// snapshot format is byte-stable for a given set of recorded values. Like
// Tracer, a registry is not thread-safe: one registry per run/task, merged
// by the owner.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dcs::obs {

/// Sorted (key, value) label pairs.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(double amount = 1.0);
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  /// set(min(current, value)) — for "worst margin seen" style gauges.
  void set_min(double value) noexcept;
  /// set(max(current, value)).
  void set_max(double value) noexcept;
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);
  /// observe(value) repeated n times in O(1) — the bulk-import path for
  /// re-exporting an externally bucketed distribution (serving's
  /// LatencyTracker) without replaying every sample.
  void observe_n(double value, std::size_t n);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Finite bucket upper bounds (an implicit +Inf bucket follows).
  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return upper_bounds_;
  }
  /// Cumulative counts per bound, Prometheus-style; the final entry (+Inf)
  /// equals count().
  [[nodiscard]] std::vector<std::size_t> cumulative_counts() const;

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::size_t> buckets_;  // per-bucket (non-cumulative), +Inf last
  std::size_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;

  /// Returns the instrument with this identity, creating it on first use.
  /// Throws std::invalid_argument if the identity exists as another kind
  /// (or, for histograms, with different buckets).
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds,
                       Labels labels = {});

  [[nodiscard]] bool empty() const noexcept { return metrics_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }
  void clear() { metrics_.clear(); }

  /// Long-format CSV: metric,kind,labels,stat,value. Scalars are one
  /// "value" row; histograms emit count, sum and cumulative bucket rows.
  void write_csv(std::ostream& out) const;
  /// {"metrics": [{"name", "kind", "labels", ...}, ...]}.
  void write_json(std::ostream& out) const;
  /// Prometheus text exposition format (# TYPE headers, {label="v"} pairs).
  void write_prometheus(std::ostream& out) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Metric {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, Labels>;

  Metric& find_or_create(std::string_view name, Labels labels, Kind kind);

  std::map<Key, Metric> metrics_;
};

/// Writes `<dir>/<name>_metrics.csv`, `.json` and `.prom`. Returns false
/// (after a diagnostic on `diag`) when a file cannot be opened or written.
bool export_metrics(const std::string& dir, const std::string& name,
                    const MetricsRegistry& registry,
                    std::ostream* diag = nullptr);

}  // namespace dcs::obs
