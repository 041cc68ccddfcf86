/// \file rng.hpp
/// Deterministic, seedable pseudo-random generator (xoshiro256**).
///
/// Channel models and property tests need reproducible randomness that is
/// independent of the standard library implementation; std::mt19937 output
/// is portable but slow, and distributions are not. We ship our own engine
/// and the few distributions we need.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

namespace tbi {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value. Inline: the channel walks draw once or twice
  /// per wire symbol.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) (bound > 0), unbiased via rejection.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with probability \p p.
  bool bernoulli(double p) { return uniform_double() < p; }

  /// A geometric variate too large for any wire position.
  static constexpr std::uint64_t kNever = UINT64_MAX;

  /// Geometric: number of failures before the first success of
  /// Bernoulli(p) trials, p in [0, 1], by inversion of one uniform draw.
  /// p = 0 returns kNever and p = 1 returns 0, neither with a draw; a
  /// variate at or past 2^64 saturates to kNever.
  std::uint64_t geometric(double p) { return geometric_log1m(std::log1p(-p)); }

  /// geometric() with log1p(-p) precomputed, for walks that draw many
  /// gaps at one p. Inline like next_u64(): the channel walks draw one
  /// gap per error event.
  std::uint64_t geometric_log1m(double log1m_p) {
    assert(log1m_p <= 0.0);  // log1p(-p) of a p in [0, 1]
    if (!(log1m_p < 0.0)) return kNever;  // p = 0: no trial ever succeeds
    if (std::isinf(log1m_p)) return 0;  // p = 1: the first trial succeeds
    // P(G >= g) = (1 - p)^g, so G = floor(log(1 - U) / log(1 - p)).
    const double g = std::floor(std::log1p(-uniform_double()) / log1m_p);
    // Casting a double at or past 2^64 to uint64_t is undefined: saturate.
    return g < 0x1p64 ? static_cast<std::uint64_t>(g) : kNever;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
};

}  // namespace tbi
