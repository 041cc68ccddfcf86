#include "mapping/optimized.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "dram/standards.hpp"

namespace tbi::mapping {
namespace {

using dram::DeviceConfig;
using dram::find_config;

class OptimizedOnDevice : public ::testing::TestWithParam<std::string> {
 protected:
  const DeviceConfig& dev() const { return *find_config(GetParam()); }
};

TEST_P(OptimizedOnDevice, TileGeometryInvariants) {
  const OptimizedMapping m(dev(), 200);
  // One full DRAM page per bank per tile (optimization 2).
  EXPECT_EQ(m.tile_width() * m.tile_height(),
            std::uint64_t{dev().banks} * dev().columns_per_page);
  // Both tile dimensions divisible by the bank count (needed for the
  // per-bank column bijection).
  EXPECT_EQ(m.tile_width() % dev().banks, 0u);
  EXPECT_EQ(m.tile_height() % dev().banks, 0u);
  // Offsets stagger one bank per Tw/NB columns (optimization 3).
  EXPECT_EQ(m.offset_dx(), m.tile_width() / dev().banks);
  EXPECT_EQ(m.offset_dy(), m.tile_height() / dev().banks);
}

TEST_P(OptimizedOnDevice, BijectiveOverTheFullRectangle) {
  const std::uint64_t side = 150;
  const OptimizedMapping m(dev(), side);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  for (std::uint64_t i = 0; i < side; ++i) {
    for (std::uint64_t j = 0; j < side; ++j) {
      const dram::Address a = m.map(i, j);
      ASSERT_LT(a.bank, dev().banks);
      ASSERT_LT(a.row, dev().rows_per_bank);
      ASSERT_LT(a.column, dev().columns_per_page);
      ASSERT_TRUE(seen.insert({a.bank, a.row, a.column}).second)
          << "duplicate DRAM address at (" << i << "," << j << ")";
    }
  }
}

TEST_P(OptimizedOnDevice, DiagonalBankRoundRobinBothDirections) {
  // Optimization 1 / Fig. 1a: the bank index increments by one with every
  // access in both the row-wise and the column-wise direction.
  const OptimizedMapping m(dev(), 100);
  const std::uint32_t nb = dev().banks;
  for (std::uint64_t i = 0; i < 40; ++i) {
    for (std::uint64_t j = 0; j < 40; ++j) {
      const auto here = m.map(i, j).bank;
      EXPECT_EQ(m.map(i, j + 1).bank, (here + 1) % nb);
      EXPECT_EQ(m.map(i + 1, j).bank, (here + 1) % nb);
    }
  }
}

TEST_P(OptimizedOnDevice, BankGroupSwitchesEveryAccess) {
  // Group-major flat ids: consecutive accesses must change the bank group
  // (this is what makes tCCD_S apply instead of tCCD_L).
  if (dev().bank_groups == 1) GTEST_SKIP() << "standard without bank groups";
  const OptimizedMapping m(dev(), 100);
  for (std::uint64_t i = 0; i < 30; ++i) {
    for (std::uint64_t j = 0; j < 30; ++j) {
      const auto g0 = m.map(i, j).bank % dev().bank_groups;
      const auto g1 = m.map(i, j + 1).bank % dev().bank_groups;
      EXPECT_NE(g0, g1);
    }
  }
}

TEST_P(OptimizedOnDevice, OnePageChangePerBankPerTileCrossingRowWise) {
  // Optimization 2: walking one index row, each bank switches its DRAM row
  // exactly once per tile crossed (instead of on nearly every access as in
  // the row-major read direction).
  const std::uint64_t side = 200;
  const OptimizedMapping m(dev(), side);
  const std::uint64_t i = 7;  // arbitrary row
  std::map<std::uint32_t, std::uint32_t> last_row;
  std::map<std::uint32_t, unsigned> changes;
  for (std::uint64_t j = 0; j < side; ++j) {
    const auto a = m.map(i, j);
    auto it = last_row.find(a.bank);
    if (it != last_row.end() && it->second != a.row) ++changes[a.bank];
    last_row[a.bank] = a.row;
  }
  // The circular shift can add one extra wrap at the padded border.
  const std::uint64_t crossings = (side + m.tile_width() - 1) / m.tile_width() + 1;
  for (const auto& [bank, n] : changes) {
    EXPECT_LE(n, crossings) << "bank " << bank;
  }
}

TEST_P(OptimizedOnDevice, ColumnOffsetStaggersPageMisses) {
  // Optimization 3 / Fig. 1d: different banks must cross tile boundaries
  // at different positions along a row, so their page misses interleave.
  const std::uint64_t side = 200;
  const OptimizedMapping m(dev(), side);
  const std::uint64_t i = 3;
  std::map<std::uint32_t, std::uint64_t> first_change;
  std::map<std::uint32_t, std::uint32_t> last_row;
  for (std::uint64_t j = 0; j < side; ++j) {
    const auto a = m.map(i, j);
    auto it = last_row.find(a.bank);
    if (it != last_row.end() && it->second != a.row &&
        first_change.find(a.bank) == first_change.end()) {
      first_change[a.bank] = j;
    }
    last_row[a.bank] = a.row;
  }
  // With the offset the first misses of distinct banks happen at distinct
  // positions; without it they would bunch at the same tile boundary.
  std::set<std::uint64_t> positions;
  for (const auto& [bank, j] : first_change) positions.insert(j);
  EXPECT_GE(positions.size(), first_change.size() / 2)
      << "page misses are not staggered";
}

TEST_P(OptimizedOnDevice, WithoutOffsetMissesBunchAtTileBoundaries) {
  const std::uint64_t side = 200;
  const OptimizedMapping m(dev(), side, OptimizedOptions{true, true, false});
  const std::uint64_t i = 3;
  std::map<std::uint32_t, std::uint32_t> last_row;
  std::set<std::uint64_t> change_positions;
  for (std::uint64_t j = 0; j < side; ++j) {
    const auto a = m.map(i, j);
    auto it = last_row.find(a.bank);
    if (it != last_row.end() && it->second != a.row) {
      // Without the offset every change must happen right after a tile
      // boundary, i.e. within one bank rotation of it.
      EXPECT_LT(j % m.tile_width(), dev().banks)
          << "unstaggered miss not at tile boundary, j=" << j;
      change_positions.insert(j);
    }
    last_row[a.bank] = a.row;
  }
  EXPECT_FALSE(change_positions.empty());
}

TEST_P(OptimizedOnDevice, AblationVariantsAreBijectiveToo) {
  const std::uint64_t side = 100;
  for (const OptimizedOptions opt :
       {OptimizedOptions{true, false, false}, OptimizedOptions{false, true, false},
        OptimizedOptions{true, true, false}, OptimizedOptions{false, false, false}}) {
    const OptimizedMapping m(dev(), side, opt);
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
    for (std::uint64_t i = 0; i < side; ++i) {
      for (std::uint64_t j = 0; j < side; ++j) {
        const dram::Address a = m.map(i, j);
        ASSERT_LT(a.bank, dev().banks);
        ASSERT_LT(a.row, dev().rows_per_bank);
        ASSERT_LT(a.column, dev().columns_per_page);
        ASSERT_TRUE(seen.insert({a.bank, a.row, a.column}).second)
            << m.name() << " duplicate at (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStandards, OptimizedOnDevice,
                         ::testing::Values("DDR3-800", "DDR3-1600", "DDR4-1600",
                                           "DDR4-3200", "DDR5-3200", "DDR5-6400",
                                           "LPDDR4-2133", "LPDDR4-4266",
                                           "LPDDR5-4267", "LPDDR5-8533"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Optimized, OffsetRequiresDiagonalAndTiling) {
  const auto& dev = *find_config("DDR4-3200");
  EXPECT_THROW(OptimizedMapping(dev, 100, OptimizedOptions{false, true, true}),
               std::invalid_argument);
  EXPECT_THROW(OptimizedMapping(dev, 100, OptimizedOptions{true, false, true}),
               std::invalid_argument);
}

TEST(Optimized, RejectsZeroSide) {
  EXPECT_THROW(OptimizedMapping(*find_config("DDR4-3200"), 0),
               std::invalid_argument);
}

TEST(Optimized, RejectsOversizedInterleaver) {
  dram::DeviceConfig small = *find_config("DDR4-3200");
  small.rows_per_bank = 4;
  EXPECT_THROW(OptimizedMapping(small, 5000), std::invalid_argument);
}

TEST(Optimized, RejectsNonPowerOfTwoGeometry) {
  // 3 banks, or 6-column pages: with those a tile of 2 banks would hold 4
  // columns per bank, so two columns of every page would go unused.
  dram::DeviceConfig banks3 = *find_config("DDR3-800");
  banks3.banks = 3;
  dram::DeviceConfig columns6 = *find_config("DDR3-800");
  columns6.banks = 2;
  columns6.columns_per_page = 6;
  for (const auto& dev : {banks3, columns6}) {
    for (const auto options :
         {OptimizedOptions{}, OptimizedOptions{true, false, false},
          OptimizedOptions{false, true, false}, OptimizedOptions{false, false, false}}) {
      EXPECT_THROW(OptimizedMapping(dev, 48, options), std::invalid_argument)
          << dev.banks << " banks, " << dev.columns_per_page << " columns";
    }
  }
}

TEST(Optimized, NameReflectsOptions) {
  const auto& dev = *find_config("DDR3-800");
  EXPECT_EQ(OptimizedMapping(dev, 10).name(), "optimized[diag,tile,offset]");
  EXPECT_EQ(OptimizedMapping(dev, 10, OptimizedOptions{true, false, false}).name(),
            "optimized[diag,-,-]");
  EXPECT_EQ(OptimizedMapping(dev, 10, OptimizedOptions{false, true, false}).name(),
            "optimized[-,tile,-]");
}

TEST(Optimized, PaddedSpaceCoversTriangleSide) {
  const auto& dev = *find_config("DDR4-3200");
  const OptimizedMapping m(dev, 383);
  EXPECT_GE(m.space().width, 383u);
  EXPECT_GE(m.space().height, 383u);
  EXPECT_EQ(m.space().width % m.tile_width(), 0u);
  EXPECT_EQ(m.space().height % m.tile_height(), 0u);
}

}  // namespace
}  // namespace tbi::mapping
