#include "serving/latency.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.h"

namespace dcs::serving {
namespace {

using Histogram = LatencyHistogram;

/// log10 spacing of one bucket.
constexpr double kDecadeFraction = 1.0 / static_cast<double>(
    Histogram::kPerDecade);

/// The bucket formula the slot table reproduces: floor(16 log10(x / 100
/// us)), floored at 0 and not yet clamped to the last bucket.
std::size_t log_index(double seconds) noexcept {
  const double pos = std::log10(seconds / Histogram::kMinSeconds) *
                     static_cast<double>(Histogram::kPerDecade);
  return static_cast<std::size_t>(std::max(pos, 0.0));
}

double bucket_lower_edge(std::size_t index) noexcept {
  return Histogram::kMinSeconds *
         std::pow(10.0, static_cast<double>(index) * kDecadeFraction);
}

/// A positive double's sign, exponent and top 4 mantissa bits: its table
/// cell. Cells are monotone in the value and span a ratio of at most 17/16,
/// under half a bucket's 10^(1/16).
constexpr std::uint64_t cell_key(double seconds) noexcept {
  return std::bit_cast<std::uint64_t>(seconds) >> 48;
}

constexpr std::uint64_t kFirstKey = cell_key(Histogram::kMinSeconds);
constexpr std::size_t kCells = static_cast<std::size_t>(
    cell_key(Histogram::kMaxSeconds) - kFirstKey + 1);

struct SlotTable {
  /// Slot of the smallest in-range double in each cell.
  std::array<std::uint8_t, kCells> base{};
  /// lower[s]: the smallest double whose slot is s, for s in 1 .. kSlots-1;
  /// lower[kSlots] = +inf closes the overflow slot.
  std::array<double, Histogram::kSlots + 1> lower{};
};

double from_bits(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

/// Smallest double in [kMinSeconds, kMaxSeconds) whose log_index reaches
/// `index`, by bisection over the (monotone) bit patterns.
double first_with_index(std::size_t index) noexcept {
  std::uint64_t lo = std::bit_cast<std::uint64_t>(Histogram::kMinSeconds);
  std::uint64_t hi =
      std::bit_cast<std::uint64_t>(std::nextafter(Histogram::kMaxSeconds, 0.0));
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (log_index(from_bits(mid)) >= index) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return from_bits(lo);
}

SlotTable build_slot_table() {
  SlotTable table;
  table.lower[1] = Histogram::kMinSeconds;
  for (std::size_t index = 1; index < Histogram::kBuckets; ++index) {
    table.lower[1 + index] = first_with_index(index);
  }
  table.lower[Histogram::kSlots - 1] = Histogram::kMaxSeconds;
  table.lower[Histogram::kSlots] = std::numeric_limits<double>::infinity();
  const double top = std::nextafter(Histogram::kMaxSeconds, 0.0);
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    const std::uint64_t key = kFirstKey + cell;
    const double low = std::max(from_bits(key << 48), Histogram::kMinSeconds);
    const double high = std::min(from_bits(((key + 1) << 48) - 1), top);
    const std::size_t slot =
        1 + std::min(log_index(low), Histogram::kBuckets - 1);
    // The lookup in slot() is exact only if the formula agrees with the
    // bisected edges here and the cell holds at most one edge.
    DCS_ENSURE(table.lower[slot] <= low && low < table.lower[slot + 1] &&
                   high < table.lower[slot + 2],
               "latency bucket table: a cell holds more than one bucket edge");
    table.base[cell] = static_cast<std::uint8_t>(slot);
  }
  return table;
}

const SlotTable kTable = build_slot_table();

/// Quantile over slot counts `count(s)` totalling `total` samples.
template <class Count>
double quantile_of(std::size_t total, Count count, double q) noexcept {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cumulative = static_cast<double>(count(0));
  if (target <= cumulative) return Histogram::kMinSeconds;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::size_t in_bucket = count(1 + i);
    if (in_bucket == 0) continue;
    const double next = cumulative + static_cast<double>(in_bucket);
    if (target <= next) {
      // Geometric interpolation between the bucket edges, matching the log
      // spacing of the buckets themselves.
      const double fraction =
          (target - cumulative) / static_cast<double>(in_bucket);
      const double lo = bucket_lower_edge(i);
      return lo * std::pow(10.0, kDecadeFraction * fraction);
    }
    cumulative = next;
  }
  return Histogram::kMaxSeconds;
}

}  // namespace

std::size_t LatencyHistogram::slot(double seconds) noexcept {
  if (!(seconds >= kMinSeconds)) return 0;
  if (seconds >= kMaxSeconds) return kSlots - 1;
  const std::size_t base = kTable.base[cell_key(seconds) - kFirstKey];
  return base + (seconds >= kTable.lower[base + 1] ? 1 : 0);
}

void LatencyHistogram::observe(double seconds) noexcept {
  if (!(seconds >= 0.0)) seconds = 0.0;  // NaN / negative guard
  ++count_;
  sum_ += seconds;
  max_ = std::max(max_, seconds);
  ++counts_[slot(seconds)];
}

void LatencyHistogram::observe_fluid(double backlog, std::size_t n,
                                     double rate) noexcept {
  const auto response = [backlog, rate](std::size_t i) {
    return (backlog + static_cast<double>(i) + 1.0) / rate;
  };
  if (!(rate > 0.0) || !(backlog >= 0.0)) {
    // Not a non-negative, non-decreasing sequence: one sample at a time.
    for (std::size_t i = 0; i < n; ++i) observe(response(i));
    return;
  }
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) sum_ += response(i);
  count_ += n;
  max_ = std::max(max_, response(n - 1));
  std::size_t i = 0;
  while (i < n) {
    const std::size_t s = slot(response(i));
    if (s == kSlots - 1) {
      counts_[s] += n - i;
      break;
    }
    // First j in (i, n] whose response reaches the next slot (n if none),
    // by bisection over the same expression.
    const double edge = kTable.lower[s + 1];
    std::size_t lo = i + 1;
    std::size_t hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (response(mid) >= edge) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    counts_[s] += lo - i;
    i = lo;
  }
}

double LatencyHistogram::quantile(double q) const noexcept {
  return quantile_of(
      count_, [this](std::size_t s) { return counts_[s]; }, q);
}

double LatencyHistogram::quantile_since(const LatencyHistogram& earlier,
                                        double q) const noexcept {
  return quantile_of(
      count_ - earlier.count_,
      [this, &earlier](std::size_t s) {
        return counts_[s] - earlier.counts_[s];
      },
      q);
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t s = 0; s < kSlots; ++s) counts_[s] += other.counts_[s];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::reset() noexcept { *this = LatencyHistogram{}; }

bool LatencyHistogram::operator==(const LatencyHistogram& other) const noexcept {
  return counts_ == other.counts_ && count_ == other.count_ &&
         sum_ == other.sum_ && max_ == other.max_;
}

std::vector<double> LatencyHistogram::prometheus_bounds() {
  std::vector<double> bounds;
  bounds.reserve(1 + kBuckets);
  bounds.push_back(kMinSeconds);  // closes the underflow bucket
  for (std::size_t i = 0; i < kBuckets; ++i) {
    bounds.push_back(bucket_lower_edge(i + 1));
  }
  return bounds;
}

std::vector<std::size_t> LatencyHistogram::bucket_counts() const {
  return {counts_.begin(), counts_.end()};
}

LatencyTracker::LatencyTracker(std::size_t window_ticks)
    : window_ticks_(window_ticks == 0 ? 1 : window_ticks) {}

void LatencyTracker::end_tick() noexcept {
  if (++ticks_in_window_ < window_ticks_) return;
  if (total_.count() > window_start_.count()) {
    last_window_p99_ = total_.quantile_since(window_start_, 0.99);
  }
  window_start_ = total_;
  ticks_in_window_ = 0;
}

double LatencyTracker::window_p99() const noexcept {
  return total_.count() > window_start_.count()
             ? total_.quantile_since(window_start_, 0.99)
             : last_window_p99_;
}

void LatencyTracker::export_metrics(obs::MetricsRegistry& registry,
                                    const std::string& prefix) const {
  registry.gauge(prefix + "p50_ms").set(p50() * 1e3);
  registry.gauge(prefix + "p95_ms").set(p95() * 1e3);
  registry.gauge(prefix + "p99_ms").set(p99() * 1e3);
  registry.gauge(prefix + "p999_ms").set(p999() * 1e3);
  registry.gauge(prefix + "mean_ms").set(total_.mean_seconds() * 1e3);
  registry.gauge(prefix + "max_ms").set(total_.max_seconds() * 1e3);
  obs::Counter& requests = registry.counter(prefix + "requests_total");
  requests.inc(static_cast<double>(total_.count()) - requests.value());

  // The full distribution as a registry histogram, so the Prometheus
  // snapshot exposes every bucket count (not just the quantile gauges).
  // Export is idempotent: only the delta against what the registry already
  // holds is imported, each bucket's samples entering at its upper bound
  // (sum is therefore an upper estimate; the exact sum stays in the
  // `mean_ms` gauge and `requests_total`).
  const std::vector<double> bounds = LatencyHistogram::prometheus_bounds();
  obs::Histogram& histogram =
      registry.histogram(prefix + "seconds", bounds);
  const std::vector<std::size_t> have = histogram.cumulative_counts();
  const std::vector<std::size_t> want = total_.bucket_counts();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::size_t have_bucket =
        i == 0 ? have[0] : have[i] - have[i - 1];
    if (want[i] <= have_bucket) continue;
    const double representative =
        i < bounds.size() ? bounds[i] : 2.0 * LatencyHistogram::kMaxSeconds;
    histogram.observe_n(representative, want[i] - have_bucket);
  }
}

}  // namespace dcs::serving
