#include "mapping/rowmajor.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/mathutil.hpp"
#include "dram/standards.hpp"
#include "mapping/factory.hpp"

namespace tbi::mapping {
namespace {

using dram::find_config;

TEST(RowMajor, PackedLinearizationIsSequentialAcrossRows) {
  const auto& dev = *find_config("DDR4-3200");
  const std::uint64_t side = 100;
  const RowMajorMapping m(dev, side);
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < side; ++i) {
    for (std::uint64_t j = 0; j < tri_row_length(side, i); ++j) {
      EXPECT_EQ(m.linear_index(i, j), expected);
      ++expected;
    }
  }
  EXPECT_EQ(expected, triangular_number(side));
}

TEST(RowMajor, BijectiveOverTheTriangle) {
  const auto& dev = *find_config("LPDDR4-4266");
  const std::uint64_t side = 180;
  const RowMajorMapping m(dev, side);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  for (std::uint64_t i = 0; i < side; ++i) {
    for (std::uint64_t j = 0; j < tri_row_length(side, i); ++j) {
      const auto a = m.map(i, j);
      ASSERT_LT(a.bank, dev.banks);
      ASSERT_LT(a.column, dev.columns_per_page);
      ASSERT_TRUE(seen.insert({a.bank, a.row, a.column}).second);
    }
  }
  EXPECT_EQ(seen.size(), triangular_number(side));
}

TEST(RowMajor, ReadDirectionStridesThroughPages) {
  // The defining pathology: walking a column visits a different DRAM page
  // (of some bank) nearly every access once the stride exceeds the page.
  const auto& dev = *find_config("DDR4-3200");
  const std::uint64_t side = 383;  // the paper's 12.5M-symbol geometry
  const RowMajorMapping m(dev, side);
  unsigned same_page = 0;
  const std::uint64_t j = 0;
  for (std::uint64_t i = 0; i + 1 < 200; ++i) {
    const auto a = m.map(i, j);
    const auto b = m.map(i + 1, j);
    same_page += (a.bank == b.bank && a.row == b.row);
  }
  // The ~383-burst stride occasionally stays inside one page window, but
  // the overwhelming majority of steps must change the page.
  EXPECT_LT(same_page, 60u);
}

TEST(RowMajor, WriteDirectionStaysSequential) {
  const auto& dev = *find_config("DDR4-3200");
  const RowMajorMapping m(dev, 383);
  // Consecutive row-wise positions map to consecutive linear indices,
  // which the RoBaCoBg layout turns into rotating bank groups.
  for (std::uint64_t j = 0; j + 1 < 100; ++j) {
    const auto a = m.map(0, j);
    const auto b = m.map(0, j + 1);
    EXPECT_NE(a.bank % dev.bank_groups, b.bank % dev.bank_groups);
  }
}

TEST(RowMajor, RejectsOversizedInterleaver) {
  dram::DeviceConfig small = *find_config("DDR3-800");
  small.rows_per_bank = 1;
  EXPECT_THROW(RowMajorMapping(small, 4000), std::invalid_argument);
}

TEST(RowMajor, RejectsZeroSide) {
  EXPECT_THROW(RowMajorMapping(*find_config("DDR3-800"), 0), std::invalid_argument);
}

TEST(Factory, KnownSpecs) {
  const auto& dev = *find_config("DDR4-3200");
  EXPECT_EQ(make_mapping("row-major", dev, 50)->name(),
            "row-major[Ro-Ba-CoH-Bg-CoL,packed]");
  EXPECT_EQ(make_mapping("row-major/robaco", dev, 50)->name(),
            "row-major[Ro-Ba-Co,packed]");
  EXPECT_EQ(make_mapping("row-major/rocoba", dev, 50)->name(),
            "row-major[Ro-Co-Ba,packed]");
  EXPECT_EQ(make_mapping("optimized", dev, 50)->name(),
            "optimized[diag,tile,offset]");
  EXPECT_EQ(make_mapping("optimized/diag+tile", dev, 50)->name(),
            "optimized[diag,tile,-]");
  EXPECT_EQ(make_mapping("optimized/none", dev, 50)->name(),
            "optimized[-,-,-]");
}

TEST(Factory, UnknownSpecThrows) {
  const auto& dev = *find_config("DDR4-3200");
  EXPECT_THROW(make_mapping("banana", dev, 50), std::invalid_argument);
}

}  // namespace
}  // namespace tbi::mapping
