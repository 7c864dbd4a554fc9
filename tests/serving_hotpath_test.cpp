// The serving layer's per-request fast paths against the straightforward
// per-request code they replace, kept here as the reference. Every fast path
// promises the reference's exact bits: the bucket table against the log10
// bucket formula, run-length fluid accounting against one observe() per
// request, the snapshot SLO window against a separately kept window
// histogram, round-robin batch placement against one pick() per request,
// and the hoisted Poisson chunk limit against a per-chunk std::exp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "serving/latency.h"
#include "serving/placement.h"
#include "serving/request_source.h"
#include "util/rng.h"

namespace dcs::serving {
namespace {

using H = LatencyHistogram;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The bucketing every LatencyHistogram used before the table: slot in
/// bucket_counts() order through the log10 formula.
std::size_t reference_slot(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;
  if (seconds < H::kMinSeconds) return 0;
  if (seconds >= H::kMaxSeconds) return H::kBuckets + 1;
  const double pos = std::log10(seconds / H::kMinSeconds) *
                     static_cast<double>(H::kPerDecade);
  const auto index = static_cast<std::size_t>(std::max(pos, 0.0));
  return 1 + std::min(index, H::kBuckets - 1);
}

/// The histogram as it was: one log10 per sample, quantiles over the
/// counts.
struct ReferenceHistogram {
  std::array<std::size_t, H::kSlots> counts{};
  std::size_t count = 0;
  double sum = 0.0;
  double max = 0.0;

  void observe(double seconds) {
    const std::size_t slot = reference_slot(seconds);
    if (!(seconds >= 0.0)) seconds = 0.0;
    ++count;
    sum += seconds;
    max = std::max(max, seconds);
    ++counts[slot];
  }

  [[nodiscard]] double quantile(double q) const {
    if (count == 0) return 0.0;
    const double fraction_step = 1.0 / static_cast<double>(H::kPerDecade);
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count);
    double cumulative = static_cast<double>(counts[0]);
    if (target <= cumulative) return H::kMinSeconds;
    for (std::size_t i = 0; i < H::kBuckets; ++i) {
      const std::size_t in_bucket = counts[1 + i];
      if (in_bucket == 0) continue;
      const double next = cumulative + static_cast<double>(in_bucket);
      if (target <= next) {
        const double fraction =
            (target - cumulative) / static_cast<double>(in_bucket);
        const double lo =
            H::kMinSeconds *
            std::pow(10.0, static_cast<double>(i) * fraction_step);
        return lo * std::pow(10.0, fraction_step * fraction);
      }
      cumulative = next;
    }
    return H::kMaxSeconds;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const H& fast, const ReferenceHistogram& ref) {
  const std::vector<std::size_t> counts = fast.bucket_counts();
  ASSERT_EQ(counts.size(), ref.counts.size());
  for (std::size_t s = 0; s < counts.size(); ++s) {
    ASSERT_EQ(counts[s], ref.counts[s]) << "slot " << s;
  }
  ASSERT_EQ(fast.count(), ref.count);
  ASSERT_EQ(bits(fast.sum_seconds()), bits(ref.sum));
  ASSERT_EQ(bits(fast.max_seconds()), bits(ref.max));
}

/// Smallest double whose reference slot reaches `slot` (for slots 1 ..
/// kBuckets + 1), by bisection over positive bit patterns.
double reference_edge(std::size_t slot) {
  std::uint64_t lo = 0;
  std::uint64_t hi = bits(kInf);
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (reference_slot(std::bit_cast<double>(mid)) >= slot) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::bit_cast<double>(lo);
}

TEST(ServingHotpath, SlotTableMatchesLog10AroundEveryEdge) {
  // Every bucket edge the formula has, including the range ends, +-10^4
  // ulps: where a table cell or a rounding error would show first.
  constexpr std::uint64_t kUlps = 10000;
  for (std::size_t slot = 1; slot < H::kSlots; ++slot) {
    const std::uint64_t edge = bits(reference_edge(slot));
    ASSERT_EQ(reference_slot(std::bit_cast<double>(edge)), slot);
    ASSERT_LT(reference_slot(std::bit_cast<double>(edge - 1)), slot);
    for (std::uint64_t b = edge - kUlps; b <= edge + kUlps; ++b) {
      const double x = std::bit_cast<double>(b);
      ASSERT_EQ(H::slot(x), reference_slot(x)) << "x = " << x;
    }
  }
}

TEST(ServingHotpath, SlotTableMatchesLog10OnSeededDraws) {
  // Log-uniform over [1e-5, 1e4]: a decade below and above the range.
  Rng rng(0x51075);
  for (int i = 0; i < 1000000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-5.0, 4.0));
    ASSERT_EQ(H::slot(x), reference_slot(x)) << "x = " << x;
  }
  // Both ends of every binade in range.
  for (int e = -15; e <= 10; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double x : {p, std::nextafter(p, 0.0), std::nextafter(p, kInf)}) {
      ASSERT_EQ(H::slot(x), reference_slot(x)) << "x = " << x;
    }
  }
  // Underflow, overflow and the guarded inputs.
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             H::kMinSeconds,
                             std::nextafter(H::kMinSeconds, 0.0),
                             H::kMaxSeconds,
                             std::nextafter(H::kMaxSeconds, 0.0),
                             1e300,
                             kInf,
                             -kInf,
                             -1.0,
                             -1e-3,
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN()};
  for (const double x : specials) {
    EXPECT_EQ(H::slot(x), reference_slot(x)) << "x = " << x;
  }
  EXPECT_EQ(H::slot(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(H::slot(kInf), H::kSlots - 1);
}

/// (backlog + i + 1) / rate for i < n, one observe() each — the fluid
/// regime's per-request loop.
void reference_fluid(ReferenceHistogram& ref, double backlog, std::size_t n,
                     double rate) {
  for (std::size_t i = 0; i < n; ++i) {
    ref.observe((backlog + static_cast<double>(i) + 1.0) / rate);
  }
}

TEST(ServingHotpath, RunLengthFluidMatchesPerRequestLoop) {
  Rng rng(0xf1d1d);
  const double odd_rates[] = {0.0, -3.0, kInf, 1e-300,
                              std::numeric_limits<double>::quiet_NaN()};
  const double odd_backlogs[] = {-0.5, -1.0, 1e16, 3e17, kInf,
                                 std::numeric_limits<double>::quiet_NaN()};
  for (int trial = 0; trial < 3000; ++trial) {
    double backlog = 0.0;
    switch (trial % 4) {
      case 0: backlog = 0.0; break;
      case 1: backlog = rng.uniform(0.0, 50.0); break;
      case 2: backlog = std::floor(rng.uniform(0.0, 2e4)); break;
      default: backlog = std::pow(10.0, rng.uniform(-3.0, 6.0)); break;
    }
    double rate = std::pow(10.0, rng.uniform(-3.0, 6.0));
    if (trial % 97 == 0) rate = odd_rates[(trial / 97) % std::size(odd_rates)];
    if (trial % 89 == 0) {
      backlog = odd_backlogs[(trial / 89) % std::size(odd_backlogs)];
    }
    const auto n = static_cast<std::size_t>(rng.uniform_index(3000));

    // Both start from the same earlier samples, so max and sum fold onto
    // a non-trivial state.
    H fast;
    ReferenceHistogram ref;
    const double prior = rng.uniform(0.0, 2.0);
    fast.observe(prior);
    ref.observe(prior);

    fast.observe_fluid(backlog, n, rate);
    reference_fluid(ref, backlog, n, rate);
    SCOPED_TRACE(testing::Message() << "backlog " << backlog << " n " << n
                                    << " rate " << rate);
    expect_same(fast, ref);
  }
}

TEST(ServingHotpath, RunLengthFluidCrossesEveryBucket) {
  // Two backlog-free periods whose responses sweep from below the
  // histogram (1e-5 s, finer than its first bucket) to 10 s, and from
  // 0.4 s past its top: every slot boundary is a run boundary.
  H fast;
  ReferenceHistogram ref;
  fast.observe_fluid(0.0, 1000000, 1e5);
  reference_fluid(ref, 0.0, 1000000, 1e5);
  fast.observe_fluid(0.0, 3000, 2.5);
  reference_fluid(ref, 0.0, 3000, 2.5);
  expect_same(fast, ref);
  for (std::size_t s = 1; s < H::kSlots - 1; ++s) {
    EXPECT_GT(fast.bucket_counts()[s], 0u) << "slot " << s;
  }
}

/// The tracker as it was: the run total plus a window histogram that
/// resets every window_ticks periods.
struct ReferenceTracker {
  explicit ReferenceTracker(std::size_t window) : window_ticks(window) {}
  void observe(double s) {
    total.observe(s);
    window.observe(s);
  }
  void end_tick() {
    if (++ticks_in_window < window_ticks) return;
    if (window.count > 0) last_window_p99 = window.quantile(0.99);
    window = ReferenceHistogram{};
    ticks_in_window = 0;
  }
  [[nodiscard]] double window_p99() const {
    return window.count > 0 ? window.quantile(0.99) : last_window_p99;
  }
  std::size_t window_ticks;
  std::size_t ticks_in_window = 0;
  double last_window_p99 = 0.0;
  ReferenceHistogram total;
  ReferenceHistogram window;
};

TEST(ServingHotpath, SnapshotWindowMatchesSeparateWindowHistogram) {
  for (const std::size_t window : {1u, 2u, 10u}) {
    Rng rng(0x5107 + window);
    LatencyTracker fast(window);
    ReferenceTracker ref(window);
    for (int tick = 0; tick < 600; ++tick) {
      // Quiet ticks (empty windows), stationary-like draws and fluid runs.
      const std::uint64_t kind = rng.uniform_index(4);
      if (kind == 1) {
        const std::size_t n = rng.uniform_index(200);
        for (std::size_t i = 0; i < n; ++i) {
          const double s = rng.exponential(rng.uniform(1.0, 500.0));
          fast.observe(s);
          ref.observe(s);
        }
      } else if (kind >= 2) {
        const double backlog = rng.uniform(0.0, 400.0);
        const std::size_t n = rng.uniform_index(400);
        const double rate = rng.uniform(10.0, 200.0);
        fast.observe_fluid(backlog, n, rate);
        for (std::size_t i = 0; i < n; ++i) {
          ref.observe((backlog + static_cast<double>(i) + 1.0) / rate);
        }
      }
      ASSERT_EQ(bits(fast.window_p99()), bits(ref.window_p99()))
          << "window " << window << " tick " << tick;
      fast.end_tick();
      ref.end_tick();
      ASSERT_EQ(bits(fast.window_p99()), bits(ref.window_p99()))
          << "window " << window << " tick " << tick << " (after end_tick)";
    }
    expect_same(fast.total(), ref.total);
    for (const double q : {0.5, 0.95, 0.99, 0.999}) {
      EXPECT_EQ(bits(fast.total().quantile(q)), bits(ref.total.quantile(q)));
    }
  }
}

TEST(ServingHotpath, RoundRobinPlaceMatchesRepeatedPick) {
  Rng rng(0x9b);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t servers = 1 + rng.uniform_index(9);
    RoundRobinPlacement fast;
    RoundRobinPlacement ref;
    std::vector<ServerLoad> loads(servers);
    // Walk both cursors to the same random state.
    const std::size_t warmup = rng.uniform_index(3 * servers);
    for (std::size_t i = 0; i < warmup; ++i) {
      (void)fast.pick(loads);
      (void)ref.pick(loads);
    }
    for (int period = 0; period < 4; ++period) {
      const std::size_t n = rng.uniform_index(5 * servers + 2);
      std::vector<ServerLoad> fast_loads(servers);
      std::vector<ServerLoad> ref_loads(servers);
      for (std::size_t s = 0; s < servers; ++s) {
        fast_loads[s].assigned = ref_loads[s].assigned = s;  // nonzero base
      }
      std::vector<std::size_t> fast_per(servers, 0);
      std::vector<std::size_t> ref_per(servers, 0);
      fast.place(n, fast_loads, fast_per);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t server = ref.pick(ref_loads);
        ++ref_loads[server].assigned;
        ++ref_per[server];
      }
      ASSERT_EQ(fast_per, ref_per) << "servers " << servers << " n " << n;
      for (std::size_t s = 0; s < servers; ++s) {
        ASSERT_EQ(fast_loads[s].assigned, ref_loads[s].assigned);
      }
    }
    // Same cursor afterwards.
    ASSERT_EQ(fast.pick(loads), ref.pick(loads));
  }
}

TEST(ServingHotpath, DefaultPlaceIsThePickLoop) {
  // jsq reads the assigned counts it updates, so its batch must be the
  // loop itself: four requests spread over the two shortest queues.
  JoinShortestQueuePlacement jsq;
  std::vector<ServerLoad> loads = {{3.0, 0, 0}, {0.0, 0, 0}, {1.0, 0, 0}};
  std::vector<std::size_t> per(3, 0);
  jsq.place(4, loads, per);
  EXPECT_EQ(per, (std::vector<std::size_t>{0, 3, 1}));
  EXPECT_EQ(loads[1].assigned, 3u);
  EXPECT_EQ(loads[2].assigned, 1u);
}

/// Poisson as it was sampled: a fresh std::exp(-mean) per Knuth chunk. The
/// mean passes through a volatile so the compiler cannot fold the
/// constant chunk's exp at build time.
std::size_t reference_poisson(Rng& rng, double mean) {
  constexpr double kChunkMean = 16.0;
  const auto chunk = [&rng](double m) -> std::size_t {
    if (m <= 0.0) return 0;
    volatile double laundered = m;
    const double limit = std::exp(-laundered);
    std::size_t k = 0;
    double product = 1.0;
    do {
      ++k;
      product *= rng.uniform();
    } while (product > limit);
    return k - 1;
  };
  std::size_t total = 0;
  while (mean > kChunkMean) {
    total += chunk(kChunkMean);
    mean -= kChunkMean;
  }
  return total + chunk(mean);
}

TEST(ServingHotpath, HoistedPoissonMatchesPerChunkExp) {
  // The hoisted limit is exp(-16) computed once, which the compiler may
  // fold at build time; the per-chunk form called libm at run time. A
  // one-ulp difference would almost never flip a sampled count, so check
  // the two values directly.
  volatile double chunk_mean = 16.0;
  EXPECT_EQ(bits(std::exp(-16.0)), bits(std::exp(-chunk_mean)));

  Rng means(0x9015);
  for (int trial = 0; trial < 4000; ++trial) {
    double mean = 0.0;
    switch (trial % 5) {
      case 0: mean = means.uniform(0.0, 16.0); break;
      case 1: mean = 16.0 * static_cast<double>(means.uniform_index(100)); break;
      case 2: mean = means.uniform(300.0, 1300.0); break;
      case 3: mean = means.uniform(16.0, 17.0); break;
      default: mean = -means.uniform(0.0, 5.0); break;
    }
    if (trial == 7) mean = std::numeric_limits<double>::quiet_NaN();
    Rng fast(0xa881 + static_cast<std::uint64_t>(trial));
    Rng ref = fast;
    ASSERT_EQ(poisson_sample(fast, mean), reference_poisson(ref, mean))
        << "mean " << mean;
    // Same draws consumed: the streams stay in step.
    ASSERT_EQ(fast.next_u64(), ref.next_u64()) << "mean " << mean;
  }
}

}  // namespace
}  // namespace dcs::serving
