#include "common/bits.hpp"

#include <gtest/gtest.h>

namespace tbi {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 63));
  EXPECT_FALSE(is_pow2((1ULL << 63) + 1));
}

TEST(Bits, Ilog2KnownValues) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(4), 2u);
  EXPECT_EQ(ilog2(255), 7u);
  EXPECT_EQ(ilog2(256), 8u);
  EXPECT_EQ(ilog2(~0ULL), 63u);
}

TEST(Bits, Clog2RoundsUp) {
  EXPECT_EQ(clog2(1), 0u);
  EXPECT_EQ(clog2(2), 1u);
  EXPECT_EQ(clog2(3), 2u);
  EXPECT_EQ(clog2(4), 2u);
  EXPECT_EQ(clog2(5), 3u);
  EXPECT_EQ(clog2(1ULL << 40), 40u);
  EXPECT_EQ(clog2((1ULL << 40) + 1), 41u);
}

TEST(Bits, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(8), 0xFFu);
  EXPECT_EQ(low_mask(63), (1ULL << 63) - 1);
}

TEST(Bits, ExtractDepositRoundTrip) {
  const std::uint64_t v = 0xDEADBEEFCAFEBABEULL;
  for (unsigned pos = 0; pos < 64; pos += 7) {
    for (unsigned cnt = 1; cnt + pos <= 64; cnt += 9) {
      const std::uint64_t field = extract_bits(v, pos, cnt);
      for (unsigned b = 0; b < 64; ++b) {
        const std::uint64_t want = b < cnt ? (v >> (pos + b)) & 1 : 0;
        ASSERT_EQ((field >> b) & 1, want) << "pos=" << pos << " cnt=" << cnt << " b=" << b;
      }
    }
  }
}

}  // namespace
}  // namespace tbi
