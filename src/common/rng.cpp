#include "common/rng.hpp"

#include <cassert>
#include <numbers>

namespace tbi {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

namespace detail {

NormalZiggurat::NormalZiggurat() {
  const auto f_of = [](double z) { return std::exp(-0.5 * z * z); };
  constexpr double r = kTailStart;
  // The common layer area: the base box [0, r) x [0, f(r)) plus the tail,
  // integral of f from r to infinity = sqrt(pi / 2) erfc(r / sqrt(2)).
  const double v = r * f_of(r) + std::sqrt(std::numbers::pi / 2) *
                                     std::erfc(r / std::numbers::sqrt2);
  x[0] = v / f_of(r);
  x[1] = r;
  // Each layer of area v: x[i] (f(x[i + 1]) - f(x[i])) = v. r is the root
  // that makes the last of these reach f = 1 at x[256] = 0.
  for (int i = 1; i < 255; ++i) x[i + 1] = std::sqrt(-2.0 * std::log(v / x[i] + f_of(x[i])));
  x[256] = 0.0;
  for (int i = 0; i <= 256; ++i) f[i] = f_of(x[i]);
  for (int i = 0; i < 256; ++i) inner[i] = x[i + 1] / x[i];
}

}  // namespace detail

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  assert(bound != 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace tbi
