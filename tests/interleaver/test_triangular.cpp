#include "interleaver/triangular.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

namespace tbi::interleaver {
namespace {

TEST(Triangular, WritePositionInvertsInputIndex) {
  const TriangularInterleaver t(57);
  for (std::uint64_t k = 0; k < t.capacity(); ++k) {
    const auto [i, j] = t.write_position(k);
    EXPECT_LT(i, 57u);
    EXPECT_LT(j, tri_row_length(57, i));
    EXPECT_EQ(t.input_index(i, j), k);
  }
}

TEST(Triangular, PermuteIsInvolution) {
  // Reading column-wise from the symmetric triangle swaps (i,j) -> (j,i),
  // so applying the permutation twice must give the identity.
  const TriangularInterleaver t(41);
  for (std::uint64_t k = 0; k < t.capacity(); ++k) {
    EXPECT_EQ(t.permute(t.permute(k)), k);
  }
}

TEST(Triangular, PermuteIsBijective) {
  const TriangularInterleaver t(33);
  std::set<std::uint64_t> out;
  for (std::uint64_t k = 0; k < t.capacity(); ++k) {
    EXPECT_TRUE(out.insert(t.permute(k)).second);
  }
  EXPECT_EQ(out.size(), t.capacity());
  EXPECT_EQ(*out.rbegin(), t.capacity() - 1);
}

TEST(Triangular, KnownSmallExample) {
  // side 3: positions (i,j): (0,0)(0,1)(0,2)(1,0)(1,1)(2,0)
  // write order k:             0     1     2    3     4    5
  // read column-wise: col 0: (0,0)(1,0)(2,0) -> 0,3,5
  //                   col 1: (0,1)(1,1)      -> 1,4
  //                   col 2: (0,2)           -> 2
  const TriangularInterleaver t(3);
  const std::vector<std::uint8_t> in = {10, 11, 12, 13, 14, 15};
  std::vector<std::uint8_t> out(in.size()), back(in.size());
  t.interleave_into(in, out);
  const std::vector<std::uint8_t> expected = {10, 13, 15, 11, 14, 12};
  EXPECT_EQ(out, expected);
  t.deinterleave_into(out, back);
  EXPECT_EQ(back, in);
}

TEST(Triangular, InterleaveDeinterleaveRoundTripLarge) {
  const TriangularInterleaver t(200);
  std::vector<std::uint8_t> data(t.capacity());
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<std::uint8_t>(k * 2654435761u >> 24);
  }
  std::vector<std::uint8_t> mixed(data.size()), back(data.size());
  t.interleave_into(data, mixed);
  t.deinterleave_into(mixed, back);
  EXPECT_EQ(back, data);
}

TEST(Triangular, ApplyMatchesPermute) {
  const TriangularInterleaver t(64);
  std::vector<std::uint8_t> data(t.capacity());
  std::iota(data.begin(), data.end(), 0);
  std::vector<std::uint8_t> out(data.size());
  t.interleave_into(data, out);
  for (std::uint64_t k = 0; k < t.capacity(); ++k) {
    EXPECT_EQ(out[t.permute(k)], data[k] & 0xFF);
  }
}

TEST(Triangular, BurstErrorSpreadsOverDistinctRows) {
  // The purpose of the interleaver (paper §I): a burst of consecutive
  // *transmitted* (interleaved) symbols must deinterleave onto distinct
  // code-word rows, at most ceil(L / column-height) hits per row.
  const std::uint64_t side = 100;
  const TriangularInterleaver t(side);
  const std::uint64_t burst_len = 50;
  for (std::uint64_t start : {0ULL, 777ULL, 3000ULL}) {
    std::vector<unsigned> per_row(side, 0);
    for (std::uint64_t k = start; k < start + burst_len; ++k) {
      const std::uint64_t input = t.permute(k);  // involution: output->input
      const auto [i, j] = t.write_position(input);
      (void)j;
      ++per_row[i];
    }
    // Burst shorter than the first column touched -> at most 2 per row
    // (column changes mid-burst at triangle edges).
    for (unsigned n : per_row) EXPECT_LE(n, 2u);
  }
}

TEST(Triangular, DepthGrowsAlongTheStream) {
  // Early output symbols come from short columns (shallow interleaving),
  // late ones from long columns: the column length read at output k is
  // n - j for column j, and j increases along the output stream.
  const std::uint64_t side = 50;
  const TriangularInterleaver t(side);
  const auto [i_first, j_first] = t.write_position(t.permute(0));
  (void)i_first;
  const auto [i_last, j_last] = t.write_position(t.permute(t.capacity() - 1));
  (void)i_last;
  EXPECT_EQ(j_first, 0u);
  EXPECT_EQ(j_last, side - 1);
}

TEST(Triangular, RejectsBadInput) {
  EXPECT_THROW(TriangularInterleaver(0), std::invalid_argument);
  const TriangularInterleaver t(10);
  EXPECT_THROW(t.write_position(t.capacity()), std::out_of_range);
  std::vector<std::uint8_t> out(t.capacity());
  EXPECT_THROW(t.interleave_into(std::vector<std::uint8_t>(3), out),
               std::invalid_argument);
}

}  // namespace
}  // namespace tbi::interleaver
