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

/// A divisor fixed at construction: n / d and n % d without a division
/// instruction, exact for every 64-bit n (Granlund & Montgomery, "Division
/// by Invariant Integers using Multiplication", PLDI 1994, Fig. 4.1). With
/// l = ceil(log2 d) and m = floor(2^64 (2^l - d) / d) + 1, which is below
/// 2^64, the quotient is (t + ((n - t) >> min(l, 1))) >> max(l - 1, 0) for
/// t = high 64 bits of m * n. One multiply, and d = 1 and the powers of
/// two take the same path (m = 1, t = 0).
class Divisor {
 public:
  /// Throws std::invalid_argument for \p d == 0.
  explicit Divisor(std::uint64_t d);

  std::uint64_t value() const { return d_; }

  friend std::uint64_t operator/(std::uint64_t n, const Divisor& d) {
    const auto t = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(d.magic_) * n) >> 64);
    return (t + ((n - t) >> d.shift1_)) >> d.shift2_;
  }

  friend std::uint64_t operator%(std::uint64_t n, const Divisor& d) {
    return n - (n / d) * d.d_;
  }

 private:
  std::uint64_t d_;
  std::uint64_t magic_;
  unsigned shift1_;
  unsigned shift2_;
};

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
