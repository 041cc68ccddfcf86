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

namespace detail {

/// Layer tables of the 256-layer normal ziggurat (Marsaglia & Tsang, "The
/// Ziggurat Method for Generating Random Variables", J. Stat. Softw. 5(8),
/// 2000) under f(z) = exp(-z^2 / 2). Layer i is the box
/// [0, x[i]) x [f[i], f[i + 1]), all 256 of one area v: layer 0 is the box
/// [0, r) x [0, f(r)) widened to x[0] = v / f(r), its part past r standing
/// for the tail beyond r; x[1] = r, and x[256] = 0 closes the top layer.
struct NormalZiggurat {
  static constexpr double kTailStart = 3.6541528853610088;  ///< r

  NormalZiggurat();

  double x[257];
  double f[257];      ///< f[i] = f(x[i]); f[256] = 1
  double inner[256];  ///< x[i + 1] / x[i]: below it, layer i lies under f
};

/// The tables, built on first use (thread-safe static initialization).
inline const NormalZiggurat& normal_ziggurat() {
  static const NormalZiggurat tables;
  return tables;
}

}  // namespace detail

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

  /// Standard normal variate by the 256-layer ziggurat. One 64-bit draw
  /// gives the layer (its low 8 bits) and a uniform u in (-1, 1) (its top
  /// 53 bits); the variate is x = u * x[layer], accepted outright in about
  /// 98.5% of draws. The rest take the exact wedge test against
  /// exp(-x^2 / 2) or, in the base layer, Marsaglia's tail beyond r; a
  /// rejection starts over. Inline for the LEO walk's AR(1) power samples.
  double normal() {
    const detail::NormalZiggurat& z = detail::normal_ziggurat();
    for (;;) {
      const std::uint64_t bits = next_u64();
      const unsigned layer = bits & 0xFF;
      // The top 53 bits as a signed integer, plus 1/2: symmetric about 0.
      const double u =
          (static_cast<double>(static_cast<std::int64_t>(bits) >> 11) + 0.5) * 0x1.0p-52;
      const double x = u * z.x[layer];
      if (std::abs(u) < z.inner[layer]) return x;
      if (layer == 0) {
        // |x| >= r (Marsaglia 1964): a = E1 / r and b = E2 for
        // exponentials E1, E2, accepted when 2b >= a^2; then r + a is
        // normal conditioned on exceeding r.
        constexpr double r = detail::NormalZiggurat::kTailStart;
        double a, b;
        do {
          a = -std::log1p(-uniform_double()) / r;
          b = -std::log1p(-uniform_double());
        } while (b + b < a * a);
        return std::copysign(r + a, x);
      }
      // The wedge: a uniform height in the layer, under f(x) or not.
      const double y = z.f[layer] + uniform_double() * (z.f[layer + 1] - z.f[layer]);
      if (y < std::exp(-0.5 * x * x)) return x;
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
};

}  // namespace tbi
