#include "common/mathutil.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace tbi {

Divisor::Divisor(std::uint64_t d) : d_(d) {
  if (d == 0) throw std::invalid_argument("Divisor: divisor must be > 0");
  // 2^(l-1) < d <= 2^l, so (2^l - d) < 2^63 and the shifted numerator
  // fits 128 bits; d = 1 gives l = 0.
  const unsigned l = 64 - static_cast<unsigned>(std::countl_zero(d - 1));
  using U128 = unsigned __int128;
  magic_ = static_cast<std::uint64_t>((((U128{1} << l) - d) << 64) / d) + 1;
  shift1_ = std::min(l, 1u);
  shift2_ = l > 0 ? l - 1 : 0;
}

std::uint64_t isqrt(std::uint64_t v) {
  // The double nearest v has a correctly rounded root within one of
  // floor(sqrt(v)) for every 64-bit v, so the fix-ups move it by at most
  // one. Seeds at or past 2^32 (v near 2^64 rounds up to 2^64) are
  // clamped to 2^32 - 1, whose square is the largest that fits: no square
  // below wraps.
  constexpr std::uint64_t kMaxRoot = 0xFFFFFFFFu;
  std::uint64_t x = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(std::sqrt(static_cast<double>(v))), kMaxRoot);
  while (x * x > v) --x;
  while (x < kMaxRoot && (x + 1) * (x + 1) <= v) ++x;
  return x;
}

std::uint64_t triangular_side_for(std::uint64_t elements) {
  if (elements == 0) return 0;
  // Solve n(n+1)/2 >= elements: n ~ sqrt(2e).
  std::uint64_t n = isqrt(2 * elements);
  while (triangular_number(n) < elements) ++n;
  while (n > 0 && triangular_number(n - 1) >= elements) --n;
  return n;
}

std::uint64_t tri_row_of(std::uint64_t n, std::uint64_t k) {
  assert(k < triangular_number(n));
  // tri_row_offset(n, x) = x (b - x) / 2 with b = 2n + 1 rises on [0, n],
  // so the row is floor(r) for the smaller root r of x^2 - b x + 2k = 0,
  // r = (b - sqrt(D)) / 2 with D = b^2 - 8k. Since
  // floor(sqrt(D)) <= sqrt(D) < floor(sqrt(D)) + 1, the estimate below
  // lies in [r, r + 1/2): it is floor(r) or one more, never less.
  const std::uint64_t b = 2 * n + 1;
  const std::uint64_t i = (b - isqrt(b * b - 8 * k)) / 2;
  return i - (tri_row_offset(n, i) > k);
}

}  // namespace tbi
