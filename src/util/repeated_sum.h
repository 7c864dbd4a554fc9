// Exact repeated floating-point sum: the value of
//
//   double s = 0.0;
//   for (std::size_t i = 0; i < count; ++i) s += value;
//
// bit for bit, in O(log count) steps instead of `count` rounded adds.
//
// `count * value` is not a substitute: the loop rounds once per add, so its
// result differs from the product in the last bits for many summands, and a
// uniform power topology, which promises the exact bits of its per-PDU walk,
// needs the loop's result.
#pragma once

#include <cstddef>

namespace dcs {

/// Returns the sequential sum of `count` copies of `value` starting from
/// +0.0, exactly as the loop above computes it under round-to-nearest-even.
/// Counts below 128 (where the loop is as fast) and subnormal, infinite and
/// NaN summands take the loop itself; a sum that overflows returns infinity
/// as the loop does.
[[nodiscard]] double repeated_sum(double value, std::size_t count) noexcept;

}  // namespace dcs
