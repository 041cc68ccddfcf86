#include "dram/standards.hpp"

#include <gtest/gtest.h>

#include <set>

namespace tbi::dram {
namespace {

TEST(Standards, ExactlyThePapersTenConfigurations) {
  const auto& configs = standard_configs();
  ASSERT_EQ(configs.size(), 10u);
  const std::vector<std::string> expected = {
      "DDR3-800",    "DDR3-1600",  "DDR4-1600",   "DDR4-3200",  "DDR5-3200",
      "DDR5-6400",   "LPDDR4-2133", "LPDDR4-4266", "LPDDR5-4267", "LPDDR5-8533"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(configs[i].name, expected[i]) << "Table I row order";
  }
}

TEST(Standards, FindConfig) {
  EXPECT_NE(find_config("DDR4-3200"), nullptr);
  EXPECT_EQ(find_config("DDR4-3200")->standard, Standard::DDR4);
  EXPECT_EQ(find_config("DDR6-9999"), nullptr);
}

TEST(Standards, AllValidate) {
  for (const auto& c : standard_configs()) EXPECT_NO_THROW(c.validate()) << c.name;
}

TEST(Standards, BankGroupsMatchStandard) {
  for (const auto& c : standard_configs()) {
    switch (c.standard) {
      case Standard::DDR3:
      case Standard::LPDDR4:
        EXPECT_EQ(c.bank_groups, 1u) << c.name << " has no bank groups";
        break;
      case Standard::DDR4:
        EXPECT_EQ(c.bank_groups, 4u) << c.name;
        EXPECT_EQ(c.banks, 16u) << c.name;
        break;
      case Standard::DDR5:
        EXPECT_EQ(c.bank_groups, 8u) << c.name;
        EXPECT_EQ(c.banks, 32u) << c.name;
        break;
      case Standard::LPDDR5:
        EXPECT_EQ(c.bank_groups, 4u) << c.name;
        EXPECT_EQ(c.banks, 16u) << c.name;
        break;
    }
  }
}

TEST(Standards, FasterGradeOfEachPairHasShorterBurst) {
  const auto& c = standard_configs();
  for (std::size_t i = 0; i + 1 < c.size(); i += 2) {
    EXPECT_EQ(c[i].standard, c[i + 1].standard);
    EXPECT_LT(c[i].data_rate_mts, c[i + 1].data_rate_mts);
    EXPECT_GT(c[i].burst_time, c[i + 1].burst_time);
    // Core row timings are specified in nanoseconds, so they must not
    // scale down proportionally with the data rate (bin-to-bin jitter of a
    // few ns is normal).
    EXPECT_LT(c[i + 1].timing.tRCD, c[i].timing.tRCD * 3 / 2) << c[i].name;
    EXPECT_GT(c[i + 1].timing.tRCD, c[i].timing.tRCD / 2) << c[i].name;
  }
}

TEST(Standards, BankGroupStandardsSeparateCcd) {
  for (const auto& c : standard_configs()) {
    if (c.bank_groups > 1 && c.data_rate_mts >= 3200) {
      EXPECT_GE(c.timing.tCCD_L, c.timing.tCCD_S) << c.name;
    }
    if (c.bank_groups == 1) {
      EXPECT_EQ(c.timing.tCCD_L, c.timing.tCCD_S) << c.name;
    }
  }
}

TEST(Standards, PeakBandwidthMatchesDataRate) {
  // 64-bit-equivalent channels: peak = burst_bytes / burst_time.
  const auto* ddr4 = find_config("DDR4-3200");
  EXPECT_NEAR(ddr4->peak_bandwidth_gbps(), 204.8, 0.1);
  const auto* lp5 = find_config("LPDDR5-8533");
  EXPECT_NEAR(lp5->peak_bandwidth_gbps(), 8000.0 * 32 / 1875, 0.1);
}

TEST(Standards, RefreshDefaultsFollowStandard) {
  EXPECT_EQ(find_config("DDR3-800")->default_refresh, RefreshMode::AllBank);
  EXPECT_EQ(find_config("DDR4-3200")->default_refresh, RefreshMode::AllBank);
  EXPECT_EQ(find_config("DDR5-6400")->default_refresh, RefreshMode::SameBank);
  EXPECT_EQ(find_config("LPDDR4-2133")->default_refresh, RefreshMode::PerBank);
  EXPECT_EQ(find_config("LPDDR5-8533")->default_refresh, RefreshMode::PerBank);
}

TEST(Standards, CapacityIsPlausible) {
  for (const auto& c : standard_configs()) {
    EXPECT_GE(c.capacity_bytes(), 1ULL << 30) << c.name;  // >= 1 GiB
    EXPECT_LE(c.capacity_bytes(), 1ULL << 36) << c.name;  // <= 64 GiB
    // Must fit the paper's interleaver: 12.5 M x 3 bit < capacity.
    EXPECT_GT(c.capacity_bytes() * 8, 12'500'000ULL * 3) << c.name;
  }
}

TEST(Standards, ValidateRejectsBrokenGeometry) {
  DeviceConfig c = *find_config("DDR4-3200");
  c.banks = 12;  // not a power of two
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = *find_config("DDR4-3200");
  c.bank_groups = 3;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = *find_config("DDR4-3200");
  c.columns_per_page = 100;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = *find_config("DDR4-3200");
  c.burst_time = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace tbi::dram
