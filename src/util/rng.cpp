#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace dcs {
namespace {

// SplitMix64, used to expand the seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = n * (UINT64_MAX / n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() noexcept {
  // Box-Muller; draw until u1 is nonzero so log() is finite.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

std::uint64_t Rng::fork_seed(std::uint64_t stream_id) const noexcept {
  // Collapse the 256-bit state and the stream id into one word, then run it
  // through two SplitMix64 rounds so neighbouring stream ids land far apart.
  std::uint64_t x = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 43);
  x ^= (stream_id + 1) * 0x9e3779b97f4a7c15ULL;
  (void)splitmix64(x);
  return splitmix64(x);
}

}  // namespace dcs
