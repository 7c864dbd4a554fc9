// Streaming latency distributions for the request-level serving layer.
//
// LatencyHistogram is a fixed-bucket log histogram (16 buckets per decade
// over [100 us, 1000 s], plus underflow/overflow) so p50/p95/p99/p999 are
// O(buckets) to read at any point in a run without storing samples.
// Observing is pure integer bucketing over deterministic inputs, and
// merging adds bucket counts, so histograms built from the same sample
// stream are bit-identical regardless of which thread ran the task — the
// same contract as every sweep-runner row.
//
// The bucket of a sample is floor(16 log10(x / 100 us)). observe() does not
// call log10: a table indexed by the sample's binade and top 4 mantissa
// bits gives the bucket at the cell's low end, and one compare against the
// next bucket's lower edge finishes it (a cell spans less than half a
// bucket, so it holds at most one edge). The edges are found at start-up by
// bisecting that log10 formula over double bit patterns, on the libm the
// process runs with, so the table gives the formula's bucket wherever the
// formula is monotone: a start-up check confirms it at both ends of every
// cell, and serving_hotpath_test around every edge and on seeded draws.
//
// observe_fluid() takes a whole period of the fluid overload queue at once.
// Its responses (B + i + 1) / mu are non-decreasing in i, so the bucket
// counts, the count and the max follow from the run of each bucket (its end
// found by bisection over the same expression), while the sum still adds
// every response in order: sum_seconds() is a floating-point fold, and only
// the sequential fold gives its bits.
//
// LatencyTracker keeps one histogram, the run-total distribution (the
// figure metric). Its sliding SLO window — whose p99 is the controller's
// SLO-violation signal (core::SloSprintStrategy::observe_latency) — is the
// total minus a copy of the total taken when the window opened. Counts are
// integers, so the difference is the window's histogram exactly and its
// quantiles carry the same bits as a separately kept window histogram.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dcs::serving {

class LatencyHistogram {
 public:
  /// Bucket geometry: kDecades decades above kMinSeconds, kPerDecade
  /// buckets each; samples below kMinSeconds land in the underflow bucket
  /// and samples at or above the top edge in the overflow bucket.
  static constexpr double kMinSeconds = 1e-4;
  static constexpr std::size_t kDecades = 7;  // up to 1000 s
  static constexpr std::size_t kPerDecade = 16;
  static constexpr std::size_t kBuckets = kDecades * kPerDecade;
  static constexpr double kMaxSeconds = 1e3;
  /// Slots of bucket_counts(): underflow, the kBuckets log buckets,
  /// overflow.
  static constexpr std::size_t kSlots = kBuckets + 2;

  /// Records one sample. NaN and negative samples count as 0 s.
  void observe(double seconds) noexcept;

  /// Records (backlog + i + 1) / rate for i = 0 .. n - 1, the response
  /// times of a fluid FIFO queue's period, with the same bits as those n
  /// observe() calls in order; O(buckets crossed x log n) apart from the
  /// sum.
  void observe_fluid(double backlog, std::size_t n, double rate) noexcept;

  /// Slot of one sample in bucket_counts(): 0 for underflow (and NaN or
  /// negative), 1 + floor(16 log10(seconds / kMinSeconds)) inside the
  /// range, kBuckets + 1 for overflow.
  [[nodiscard]] static std::size_t slot(double seconds) noexcept;

  /// Quantile in seconds, q in [0, 1]; geometric interpolation inside the
  /// winning bucket. Underflow resolves to kMinSeconds, overflow to
  /// kMaxSeconds. 0 when the histogram is empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// quantile(q) of the samples observed since `earlier`, an earlier copy
  /// of this histogram: the bucket counts are differenced exactly.
  [[nodiscard]] double quantile_since(const LatencyHistogram& earlier,
                                      double q) const noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double sum_seconds() const noexcept { return sum_; }
  [[nodiscard]] double mean_seconds() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double max_seconds() const noexcept { return max_; }

  /// Adds the other histogram's buckets into this one (commutative on the
  /// counts; sum/max fold exactly for any merge order).
  void merge(const LatencyHistogram& other) noexcept;

  void reset() noexcept;

  /// Bucket-exact equality — the bit-identity check used by the serving
  /// determinism tests.
  [[nodiscard]] bool operator==(const LatencyHistogram& other) const noexcept;

  /// Finite Prometheus `le` bounds matching this geometry (seconds):
  /// kMinSeconds closes the underflow bucket, then every log bucket's
  /// upper edge — 1 + kBuckets entries; the overflow bucket is the
  /// implicit +Inf.
  [[nodiscard]] static std::vector<double> prometheus_bounds();
  /// Per-bucket (non-cumulative) counts aligned with prometheus_bounds(),
  /// overflow last: size 2 + kBuckets.
  [[nodiscard]] std::vector<std::size_t> bucket_counts() const;

 private:
  std::array<std::size_t, kSlots> counts_{};  // bucket_counts() layout
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

class LatencyTracker {
 public:
  /// `window_ticks`: control periods per sliding SLO window (a new window
  /// opens every that many end_tick() calls).
  explicit LatencyTracker(std::size_t window_ticks = 10);

  /// Records one request's response time.
  void observe(double seconds) noexcept { total_.observe(seconds); }

  /// LatencyHistogram::observe_fluid on the run total.
  void observe_fluid(double backlog, std::size_t n, double rate) noexcept {
    total_.observe_fluid(backlog, n, rate);
  }

  /// Advances the window clock; call once per control period.
  void end_tick() noexcept;

  /// p99 over the current window (falling back to the last completed
  /// window while the current one is still empty) — the SLO signal.
  [[nodiscard]] double window_p99() const noexcept;

  [[nodiscard]] const LatencyHistogram& total() const noexcept { return total_; }
  [[nodiscard]] double p50() const noexcept { return total_.quantile(0.50); }
  [[nodiscard]] double p95() const noexcept { return total_.quantile(0.95); }
  [[nodiscard]] double p99() const noexcept { return total_.quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return total_.quantile(0.999); }

  /// Gauges `<prefix>p50_ms`/`p95_ms`/`p99_ms`/`p999_ms`/`mean_ms`/`max_ms`
  /// and counter `<prefix>requests_total` into `registry`.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "latency_") const;

 private:
  std::size_t window_ticks_;
  std::size_t ticks_in_window_ = 0;
  double last_window_p99_ = 0.0;
  LatencyHistogram total_;
  /// total_ as it stood when the current window opened.
  LatencyHistogram window_start_;
};

}  // namespace dcs::serving
