/// \file mathutil.hpp
/// Integer math helpers for triangular index spaces and geometry sizing.
#pragma once

#include <cassert>
#include <cstdint>

namespace tbi {

/// ceil(a / b) for b > 0.
constexpr std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) {
  assert(b != 0);
  return (a + b - 1) / b;
}

/// Round \p a up to the next multiple of \p b (b > 0).
constexpr std::uint64_t round_up(std::uint64_t a, std::uint64_t b) {
  return div_ceil(a, b) * b;
}

/// n-th triangular number: number of elements of an upper-left triangular
/// array of side n (row i holds n - i elements, i = 0..n-1).
constexpr std::uint64_t triangular_number(std::uint64_t n) { return n * (n + 1) / 2; }

/// Smallest side n such that triangular_number(n) >= elements.
std::uint64_t triangular_side_for(std::uint64_t elements);

/// Exact integer sqrt: floor(sqrt(v)).
std::uint64_t isqrt(std::uint64_t v);

/// Linear offset of row \p i inside a *packed* upper-left triangular array
/// of side \p n stored row-major (row 0 first, each row one element
/// shorter). This is the SRAM-style linearization the row-major baseline
/// mapping uses.
constexpr std::uint64_t tri_row_offset(std::uint64_t n, std::uint64_t i) {
  assert(i <= n);
  // sum_{k<i} (n - k) = i*n - i(i-1)/2
  return i * n - i * (i - 1) / 2;
}

/// Row holding packed offset \p k (k < triangular_number(n)) of a packed
/// upper-left triangular array of side \p n: the i with
/// tri_row_offset(n, i) <= k < tri_row_offset(n, i + 1). O(1).
std::uint64_t tri_row_of(std::uint64_t n, std::uint64_t k);

/// Number of valid columns in row i (upper-left triangle, side n).
constexpr std::uint64_t tri_row_length(std::uint64_t n, std::uint64_t i) {
  assert(i < n);
  return n - i;
}

/// Number of valid rows in column j (upper-left triangle, side n).
constexpr std::uint64_t tri_col_length(std::uint64_t n, std::uint64_t j) {
  assert(j < n);
  return n - j;
}

/// True iff (row i, col j) lies inside the upper-left triangle of side n.
constexpr bool tri_contains(std::uint64_t n, std::uint64_t i, std::uint64_t j) {
  return i < n && j < tri_row_length(n, i);
}

}  // namespace tbi
