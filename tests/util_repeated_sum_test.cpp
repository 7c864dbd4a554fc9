#include "util/repeated_sum.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dcs {
namespace {

// The reference: the sequential accumulation the kernel must reproduce.
double loop_sum(double value, std::size_t count) {
  double s = 0.0;
  for (std::size_t i = 0; i < count; ++i) s += value;
  return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double from_parts(std::uint64_t sign, std::uint64_t exponent, std::uint64_t frac) {
  return std::bit_cast<double>((sign << 63) | (exponent << 52) |
                               (frac & ((std::uint64_t{1} << 52) - 1)));
}

constexpr std::size_t kFixedCounts[] = {0, 1, 2, 3, 909, 1023, 1024, 4096};

std::size_t draw_count(Rng& rng) {
  const std::uint64_t r = rng.uniform_index(1000);
  if (r == 0) return 100000;
  if (r < 300) return kFixedCounts[rng.uniform_index(std::size(kFixedCounts))];
  return static_cast<std::size_t>(rng.uniform_index(2000));
}

// Summands with only `k` significand bits: the low zero bits make a / ulp(s)
// end in exactly one half in some binade of the running sum, so the
// round-half-to-even branch is hit. `top` packs the bits at the top of the
// fraction, otherwise they are scattered.
double sparse_value(Rng& rng, bool top) {
  const auto k = static_cast<int>(rng.uniform_index(9));
  std::uint64_t frac = 0;
  if (top) {
    if (k > 0) frac = (rng.next_u64() >> (64 - k)) << (52 - k);
  } else {
    for (int i = 0; i < k; ++i) frac |= std::uint64_t{1} << rng.uniform_index(52);
  }
  const std::uint64_t exponent = 1 + rng.uniform_index(2046);
  return from_parts(rng.uniform_index(2), exponent, frac);
}

double special_value(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const double fixed[] = {0.0,         -0.0,        kInf,      -kInf,
                          std::numeric_limits<double>::quiet_NaN(),
                          -std::numeric_limits<double>::quiet_NaN(),
                          kMax,        -kMax,       kMax / 1000.0,
                          kMin,        -kMin,       kTiny,     -kTiny,
                          kMin - kTiny, 1.0,        0.1,       -0.1};
  const std::uint64_t pick = rng.uniform_index(std::size(fixed) + 2);
  if (pick < std::size(fixed)) return fixed[pick];
  // Random subnormal, either sign.
  return from_parts(rng.uniform_index(2), 0, rng.next_u64());
}

// Plant-scale magnitudes (watts, joules), the summands a topology feeds in.
double plant_value(Rng& rng) {
  const double scale = rng.uniform_index(2) == 0 ? 25000.0 : 3.6e7;
  return rng.uniform(-0.05, 1.0) * scale;
}

double draw_value(Rng& rng) {
  switch (rng.uniform_index(5)) {
    case 0: return std::bit_cast<double>(rng.next_u64());
    case 1: return sparse_value(rng, true);
    case 2: return sparse_value(rng, false);
    case 3: return special_value(rng);
    default: return plant_value(rng);
  }
}

TEST(RepeatedSum, MatchesSequentialLoopOnMillionSeededDraws) {
  Rng rng(20150630);
  std::size_t mismatches = 0;
  std::string first;
  for (int draw = 0; draw < 1'000'000; ++draw) {
    const double value = draw_value(rng);
    const std::size_t count = draw_count(rng);
    const double want = loop_sum(value, count);
    const double got = repeated_sum(value, count);
    if (bits(got) != bits(want)) {
      if (mismatches++ == 0) {
        std::ostringstream msg;
        msg << std::hexfloat << "value " << value << " count " << count
            << ": got " << got << " want " << want;
        first = msg.str();
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
}

TEST(RepeatedSum, EdgeValuesAtEveryListedCount) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.5, 3.0, 1.0 + 0x1p-52, 0x1.8p-1,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::max() / 909,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::denorm_min(),
      kInf, -kInf, std::numeric_limits<double>::quiet_NaN(), 12345.678, -0.3};
  for (const double v : values) {
    for (const std::size_t n : {0, 1, 2, 3, 909, 1023, 1024, 4096, 100000}) {
      EXPECT_EQ(bits(repeated_sum(v, n)), bits(loop_sum(v, n)))
          << std::hexfloat << v << " x " << n;
    }
  }
}

}  // namespace
}  // namespace dcs
