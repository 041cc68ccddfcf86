#include "interleaver/block.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace tbi::interleaver {
namespace {

TEST(Block, PermuteMatchesTransposeSemantics) {
  // 2 rows x 3 cols, written row-wise [0 1 2 / 3 4 5], read column-wise:
  // output order 0,3,1,4,2,5.
  const BlockInterleaver b(2, 3);
  EXPECT_EQ(b.permute(0), 0u);
  EXPECT_EQ(b.permute(1), 2u);
  EXPECT_EQ(b.permute(2), 4u);
  EXPECT_EQ(b.permute(3), 1u);
  EXPECT_EQ(b.permute(4), 3u);
  EXPECT_EQ(b.permute(5), 5u);
}

TEST(Block, InverseUndoesPermute) {
  const BlockInterleaver b(7, 11);
  for (std::uint64_t k = 0; k < b.capacity(); ++k) {
    EXPECT_EQ(b.inverse(b.permute(k)), k);
    EXPECT_EQ(b.permute(b.inverse(k)), k);
  }
}

TEST(Block, InterleaveDeinterleaveRoundTrip) {
  const BlockInterleaver b(16, 32);
  std::vector<std::uint8_t> data(b.capacity());
  std::iota(data.begin(), data.end(), 0);
  std::vector<std::uint8_t> mixed(data.size()), back(data.size());
  b.interleave_into(data, mixed);
  EXPECT_NE(mixed, data);
  b.deinterleave_into(mixed, back);
  EXPECT_EQ(back, data);
}

TEST(Block, SpreadsBurstErrorsAcrossRows) {
  // A burst of L consecutive symbols in the interleaved stream touches
  // ceil(L/rows) symbols per row at most — the classic depth guarantee.
  const std::uint64_t rows = 8, cols = 16;
  const BlockInterleaver b(rows, cols);
  const std::uint64_t burst_len = rows;  // one full column
  for (std::uint64_t start = 0; start + burst_len <= b.capacity(); start += 13) {
    std::vector<unsigned> per_row(rows, 0);
    for (std::uint64_t k = start; k < start + burst_len; ++k) {
      const std::uint64_t input = b.inverse(k);
      ++per_row[input / cols];
    }
    for (unsigned n : per_row) EXPECT_LE(n, 2u);
  }
}

TEST(Block, SquareTransposeIsInvolution) {
  const BlockInterleaver b(12, 12);
  for (std::uint64_t k = 0; k < b.capacity(); ++k) {
    EXPECT_EQ(b.permute(b.permute(k)), k);
  }
}

TEST(Block, RejectsBadInput) {
  EXPECT_THROW(BlockInterleaver(0, 4), std::invalid_argument);
  EXPECT_THROW(BlockInterleaver(4, 0), std::invalid_argument);
  const BlockInterleaver b(4, 4);
  EXPECT_THROW(b.permute(16), std::out_of_range);
  std::vector<std::uint8_t> out(b.capacity());
  EXPECT_THROW(b.interleave_into(std::vector<std::uint8_t>(15), out),
               std::invalid_argument);
}

}  // namespace
}  // namespace tbi::interleaver
