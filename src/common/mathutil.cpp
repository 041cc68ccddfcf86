#include "common/mathutil.hpp"

namespace tbi {

std::uint64_t isqrt(std::uint64_t v) {
  if (v == 0) return 0;
  std::uint64_t x = v;
  std::uint64_t y = (x + 1) / 2;
  while (y < x) {
    x = y;
    y = (x + v / x) / 2;
  }
  // x = floor(sqrt(v)) by Newton iteration on integers.
  while (x * x > v) --x;
  while ((x + 1) * (x + 1) <= v) ++x;
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
  // Solve tri_row_offset(n, i) <= k via the quadratic root of
  // -i^2/2 + i(n + 1/2) - k = 0, then fix up integer rounding.
  const std::uint64_t disc = (2 * n + 1) * (2 * n + 1) - 8 * k;
  std::uint64_t i = (2 * n + 1 - isqrt(disc)) / 2;
  while (i > 0 && tri_row_offset(n, i) > k) --i;
  while (i + 1 < n && tri_row_offset(n, i + 1) <= k) ++i;
  return i;
}

}  // namespace tbi
