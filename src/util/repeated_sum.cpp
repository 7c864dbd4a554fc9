#include "util/repeated_sum.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace dcs {
namespace {

constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
// Largest significand of a binade: one more and the sum moves up a binade.
constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
// Below this count the plain loop is as fast as the binade walk: about 1 ns
// per add against 15-25 ns per binade, measured on an x86-64 Xeon.
constexpr std::size_t kLoopBelow = 128;

double loop_sum(double value, std::size_t count) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < count; ++i) s += value;
  return s;
}

}  // namespace

// Works on a = |value| (round-to-nearest-even is symmetric, so the sum of
// -a's is the negated sum of a's). Write a = m * 2^e with m a 53-bit
// significand (the code keeps exponents biased; only their differences,
// `shift`, matter). While the running sum s stays inside one binade, s is an
// integer M in units of that binade's ulp U = 2^(e + shift), and each add
// lands on M + round(a / U). Away from ties that increment d is the same on
// every add, so the adds that keep M below 2^53 collapse into one integer
// jump of the significand bits. On a tie (a / U ends in exactly one half) the
// add rounds to the even neighbour: from an even M the increment is the even
// one of floor(a / U) and floor(a / U) + 1, and from an odd M one genuine add
// lands on an even M first. The add that crosses into the next binade is
// also taken as a genuine rounded add. So each binade costs a few adds and
// one division, and n adds visit about log2(n) binades.
double repeated_sum(double value, std::size_t count) noexcept {
  if (value == 0.0) return 0.0;  // 0.0 + -0.0 is +0.0
  const double a = std::fabs(value);
  if (count < kLoopBelow || !std::isnormal(a)) return loop_sum(value, count);

  const std::uint64_t abits = std::bit_cast<std::uint64_t>(a);
  const std::uint64_t m = (abits & kFracMask) | kHidden;
  const auto e = static_cast<int>(abits >> 52);

  double s = a;  // 0.0 + a is exact
  std::size_t left = count - 1;
  while (left > 0) {
    s += a;  // one genuine rounded add
    --left;
    if (left == 0 || std::isinf(s)) break;  // inf + a stays inf

    const std::uint64_t sbits = std::bit_cast<std::uint64_t>(s);
    const int shift = static_cast<int>(sbits >> 52) - e;  // >= 1 as s >= 2a
    if (shift > 53) break;  // a is under half an ulp of s: every add returns s
    const std::uint64_t big_m = (sbits & kFracMask) | kHidden;
    const std::uint64_t q = m >> shift;
    const std::uint64_t rem = m & ((std::uint64_t{1} << shift) - 1);
    const std::uint64_t half = std::uint64_t{1} << (shift - 1);
    std::uint64_t d = q + static_cast<std::uint64_t>(rem > half);
    if (rem == half) {
      if ((big_m & 1) != 0) continue;  // the next add lands on an even M
      d = q + (q & 1);
    }
    if (d == 0) break;  // a tie that rounds back to s on every add

    const std::uint64_t steps = std::min<std::uint64_t>((kTop - big_m) / d, left);
    s = std::bit_cast<double>(sbits + steps * d);
    left -= static_cast<std::size_t>(steps);
  }
  return value < 0.0 ? -s : s;
}

}  // namespace dcs
