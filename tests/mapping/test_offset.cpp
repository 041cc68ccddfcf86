#include "mapping/offset.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dram/standards.hpp"
#include "mapping/factory.hpp"

namespace tbi::mapping {
namespace {

using dram::find_config;

TEST(RowOffset, ShiftsOnlyTheRow) {
  const auto& dev = *find_config("DDR4-3200");
  const auto base = make_mapping("optimized", dev, 64);
  RowOffsetMapping shifted(make_mapping("optimized", dev, 64), 100,
                           dev.rows_per_bank);
  for (std::uint64_t i = 0; i < 30; ++i) {
    for (std::uint64_t j = 0; j < 30; ++j) {
      const auto a = base->map(i, j);
      const auto b = shifted.map(i, j);
      EXPECT_EQ(b.bank, a.bank);
      EXPECT_EQ(b.column, a.column);
      EXPECT_EQ(b.row, a.row + 100);
    }
  }
}

TEST(RowOffset, DisjointFromUnshiftedRegion) {
  const auto& dev = *find_config("LPDDR4-4266");
  const std::uint64_t side = 64;
  const auto base = make_mapping("optimized", dev, side);
  // Probe the footprint, then shift by exactly that many rows.
  std::uint32_t rows = 0;
  for (std::uint64_t i = 0; i < side; ++i) {
    for (std::uint64_t j = 0; j < side - i; ++j) {
      rows = std::max(rows, base->map(i, j).row + 1);
    }
  }
  RowOffsetMapping shifted(make_mapping("optimized", dev, side), rows,
                           dev.rows_per_bank);
  std::set<std::pair<std::uint32_t, std::uint32_t>> region_a, region_b;
  for (std::uint64_t i = 0; i < side; ++i) {
    for (std::uint64_t j = 0; j < side - i; ++j) {
      const auto a = base->map(i, j);
      const auto b = shifted.map(i, j);
      region_a.insert({a.bank, a.row});
      region_b.insert({b.bank, b.row});
    }
  }
  for (const auto& page : region_b) {
    EXPECT_EQ(region_a.count(page), 0u) << "page overlap between buffers";
  }
}

TEST(RowOffset, ThrowsBeyondDevice) {
  const auto& dev = *find_config("DDR3-800");
  RowOffsetMapping shifted(make_mapping("row-major", dev, 64),
                           dev.rows_per_bank - 1, dev.rows_per_bank);
  EXPECT_THROW(shifted.map(63, 0), std::out_of_range);
  // Row 0 of the inner image lands on the last device row, row 1 beyond it.
  std::vector<dram::Address> out(64);
  shifted.map_run(0, 0, true, 64, out.data());
  EXPECT_EQ(out[63].row, dev.rows_per_bank - 1);
  EXPECT_THROW(shifted.map_run(0, 0, false, 64, out.data()), std::out_of_range);
  EXPECT_THROW(shifted.map_run(63, 0, true, 1, out.data()), std::out_of_range);
}

TEST(RowOffset, NullInnerRejected) {
  EXPECT_THROW(RowOffsetMapping(nullptr, 0, 100), std::invalid_argument);
}

TEST(RowOffset, NameDocumentsTheShift) {
  const auto& dev = *find_config("DDR3-800");
  RowOffsetMapping shifted(make_mapping("optimized", dev, 16), 42,
                           dev.rows_per_bank);
  EXPECT_NE(shifted.name().find("+rows:42"), std::string::npos);
  EXPECT_EQ(shifted.row_offset(), 42u);
  EXPECT_EQ(shifted.space().side, 16u);
}

}  // namespace
}  // namespace tbi::mapping
