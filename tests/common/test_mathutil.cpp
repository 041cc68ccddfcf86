#include "common/mathutil.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace tbi {
namespace {

TEST(MathUtil, DivCeil) {
  EXPECT_EQ(div_ceil(0, 4), 0u);
  EXPECT_EQ(div_ceil(1, 4), 1u);
  EXPECT_EQ(div_ceil(4, 4), 1u);
  EXPECT_EQ(div_ceil(5, 4), 2u);
}

TEST(MathUtil, RoundUp) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(round_up(9, 8), 16u);
}

TEST(MathUtil, TriangularNumber) {
  EXPECT_EQ(triangular_number(0), 0u);
  EXPECT_EQ(triangular_number(1), 1u);
  EXPECT_EQ(triangular_number(4), 10u);
  EXPECT_EQ(triangular_number(5000), 12502500u);  // the paper's 12.5 M
}

TEST(MathUtil, IsqrtExactAndFloor) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(1ULL << 62), 1ULL << 31);
  for (std::uint64_t v = 0; v < 3000; ++v) {
    const std::uint64_t r = isqrt(v);
    EXPECT_LE(r * r, v);
    EXPECT_GT((r + 1) * (r + 1), v);
  }
}

TEST(MathUtil, IsqrtNearTwoToThe64) {
  // r = floor(sqrt(v)) iff r^2 <= v < (r + 1)^2, checked in 128 bits so
  // that (r + 1)^2 cannot wrap even at r = 2^32 - 1.
  using U128 = unsigned __int128;
  const auto is_floor_root = [](std::uint64_t v, std::uint64_t r) {
    const U128 r2 = static_cast<U128>(r) * r;
    return r2 <= v && r2 + 2 * static_cast<U128>(r) + 1 > v;
  };
  constexpr std::uint64_t kMaxRoot = 0xFFFFFFFFu;
  // Perfect squares and their neighbours: around 2^26, where a double
  // still holds k^2 exactly; around 2^31.5, where k^2 crosses 2^63; and
  // up to 2^32 - 1, whose square is the largest below 2^64.
  std::vector<std::uint64_t> roots = {3037000499u, 3037000500u, 1ULL << 31};
  for (std::uint64_t d = 0; d < 8; ++d) {
    roots.push_back((1ULL << 26) - 4 + d);
    roots.push_back(kMaxRoot - d);
  }
  Rng rng(64);
  for (int i = 0; i < 1000; ++i) roots.push_back(2 + rng.uniform(kMaxRoot - 1));
  for (const std::uint64_t k : roots) {
    const std::uint64_t sq = k * k;
    EXPECT_EQ(isqrt(sq - 1), k - 1) << k;
    EXPECT_EQ(isqrt(sq), k) << k;
    EXPECT_EQ(isqrt(sq + 1), k) << k;
  }
  EXPECT_EQ(isqrt(UINT64_MAX), kMaxRoot);
  // Random inputs of every bit width, top bit set.
  for (unsigned width = 1; width <= 64; ++width) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t v = (rng.next_u64() >> (64 - width)) | (1ULL << (width - 1));
      ASSERT_TRUE(is_floor_root(v, isqrt(v))) << v;
    }
  }
}

TEST(MathUtil, DivisorMatchesHardwareDivision) {
  // 1 and powers of two up to 2^63 (the shift-only case), the
  // interleavers' own divisors (170 symbols per burst, 170^2 = 28,900,
  // RS n = 255), and divisors around 2^32 and at 2^64 - 1, where the
  // magic multiplier needs its full 64 bits.
  const std::vector<std::uint64_t> divisors = {
      1, 2, 3, 7, 64, 170, 255, 4096, 28'900, 0xFFFFFFFFu, 1ULL << 32, (1ULL << 32) + 1,
      1ULL << 63, UINT64_MAX};
  Rng rng(19);
  for (const std::uint64_t d : divisors) {
    const Divisor div(d);
    EXPECT_EQ(div.value(), d);
    std::vector<std::uint64_t> numerators = {0, 1, d - 1, d, d + 1, 1ULL << 63, UINT64_MAX};
    // Random numerators of every bit width, top bit set.
    for (unsigned width = 1; width <= 64; ++width) {
      for (int i = 0; i < 500; ++i) {
        numerators.push_back((rng.next_u64() >> (64 - width)) | (1ULL << (width - 1)));
      }
    }
    for (const std::uint64_t n : numerators) {
      ASSERT_EQ(n / div, n / d) << n << " / " << d;
      ASSERT_EQ(n % div, n % d) << n << " % " << d;
    }
  }
  EXPECT_THROW(Divisor(0), std::invalid_argument);
}

TEST(MathUtil, TriangularSideFor) {
  EXPECT_EQ(triangular_side_for(0), 0u);
  EXPECT_EQ(triangular_side_for(1), 1u);
  EXPECT_EQ(triangular_side_for(2), 2u);
  EXPECT_EQ(triangular_side_for(3), 2u);
  EXPECT_EQ(triangular_side_for(4), 3u);
  EXPECT_EQ(triangular_side_for(12502500), 5000u);
  EXPECT_EQ(triangular_side_for(12502501), 5001u);
  // Minimality property across a range.
  for (std::uint64_t e = 1; e < 5000; e += 13) {
    const std::uint64_t n = triangular_side_for(e);
    EXPECT_GE(triangular_number(n), e);
    EXPECT_LT(triangular_number(n - 1), e);
  }
}

TEST(MathUtil, TriRowOffsetMatchesCumulativeLengths) {
  const std::uint64_t n = 57;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(tri_row_offset(n, i), acc);
    acc += tri_row_length(n, i);
  }
  EXPECT_EQ(acc, triangular_number(n));
  EXPECT_EQ(tri_row_offset(n, n), triangular_number(n));
}

TEST(MathUtil, TriRowOfMatchesRowOffsets) {
  // Every k of small triangles, and the first and last symbol of sampled
  // rows (the first and last rows included) up to side 2^31 - 1, the
  // largest whose (2n + 1)^2 fits 64 bits.
  for (std::uint64_t n = 1; n <= 64; ++n) {
    std::uint64_t row = 0;
    for (std::uint64_t k = 0; k < triangular_number(n); ++k) {
      if (k == tri_row_offset(n, row + 1)) ++row;
      ASSERT_EQ(tri_row_of(n, k), row) << n << " " << k;
    }
  }
  Rng rng(23);
  for (const std::uint64_t n : {255ULL, 5000ULL, 1ULL << 20, (1ULL << 31) - 1}) {
    std::vector<std::uint64_t> rows = {0, 1, n - 2, n - 1};
    for (int i = 0; i < 2000; ++i) rows.push_back(rng.uniform(n));
    for (const std::uint64_t i : rows) {
      EXPECT_EQ(tri_row_of(n, tri_row_offset(n, i)), i) << n;
      EXPECT_EQ(tri_row_of(n, tri_row_offset(n, i + 1) - 1), i) << n;
    }
  }
}

TEST(MathUtil, TriangleGeometrySymmetry) {
  const std::uint64_t n = 23;
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(tri_row_length(n, i), tri_col_length(n, i));
    for (std::uint64_t j = 0; j < n; ++j) {
      // (i,j) inside iff (j,i) inside: the upper-left triangle is symmetric.
      EXPECT_EQ(tri_contains(n, i, j), tri_contains(n, j, i));
    }
  }
  EXPECT_TRUE(tri_contains(n, 0, n - 1));
  EXPECT_TRUE(tri_contains(n, n - 1, 0));
  EXPECT_FALSE(tri_contains(n, 1, n - 1));
  EXPECT_FALSE(tri_contains(n, n, 0));
}

}  // namespace
}  // namespace tbi
