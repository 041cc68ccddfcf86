#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include "common/mathutil.hpp"
#include "dram/standards.hpp"

namespace tbi::sim {
namespace {

using dram::find_config;

RunConfig base_config(const char* device, const char* mapping,
                      std::uint64_t max_bursts = 20000) {
  RunConfig rc;
  rc.device = *find_config(device);
  rc.mapping_spec = mapping;
  rc.side = paper_side_for(rc.device);
  rc.max_bursts_per_phase = max_bursts;
  return rc;
}

TEST(Runner, PaperSideMatchesBurstSize) {
  EXPECT_EQ(paper_side_for(*find_config("DDR4-3200")), 383u);
  EXPECT_EQ(paper_side_for(*find_config("LPDDR4-4266")), 541u);
}

TEST(Runner, RunsBothPhases) {
  const auto run = run_interleaver(base_config("DDR4-3200", "optimized"));
  EXPECT_EQ(run.device_name, "DDR4-3200");
  EXPECT_EQ(run.mapping_name, "optimized[diag,tile,offset]");
  EXPECT_EQ(run.write.stats.bursts, 20000u);
  EXPECT_EQ(run.read.stats.bursts, 20000u);
  EXPECT_EQ(run.write.stats.writes, 20000u);
  EXPECT_EQ(run.read.stats.reads, 20000u);
  EXPECT_GT(run.write.stats.utilization(), 0.5);
  EXPECT_GT(run.read.stats.utilization(), 0.5);
  EXPECT_GT(run.write.energy.total_nj(), 0.0);
}

TEST(Runner, FullTriangleWhenUntruncated) {
  auto rc = base_config("DDR4-3200", "optimized", 0);
  rc.side = 100;
  const auto run = run_interleaver(rc);
  EXPECT_EQ(run.write.stats.bursts, triangular_number(100));
  EXPECT_EQ(run.read.stats.bursts, triangular_number(100));
}

TEST(Runner, MinUtilizationIsTheMinimum) {
  const auto run = run_interleaver(base_config("DDR4-3200", "row-major"));
  EXPECT_DOUBLE_EQ(run.min_utilization(),
                   std::min(run.write.stats.utilization(),
                            run.read.stats.utilization()));
  EXPECT_LE(run.throughput_gbps(64),
            run.write.stats.bandwidth_gbps(64) + 1e-9);
}

TEST(Runner, ProtocolCheckedRunsAreClean) {
  // Both mappings on a representative device pass the independent JEDEC
  // checker end to end — this is the test that guards the whole pipeline.
  for (const char* mapping : {"row-major", "optimized", "optimized/diag",
                              "optimized/tile", "optimized/diag+tile"}) {
    auto rc = base_config("DDR4-3200", mapping, 15000);
    rc.check_protocol = true;
    EXPECT_NO_THROW(run_interleaver(rc)) << mapping;
  }
}

TEST(Runner, ProtocolCleanOnAllTenDevices) {
  for (const auto& dev : dram::standard_configs()) {
    RunConfig rc;
    rc.device = dev;
    rc.mapping_spec = "optimized";
    rc.side = paper_side_for(dev);
    rc.max_bursts_per_phase = 8000;
    rc.check_protocol = true;
    EXPECT_NO_THROW(run_interleaver(rc)) << dev.name;
  }
}

TEST(Runner, RequiresSide) {
  RunConfig rc;
  rc.device = *find_config("DDR3-800");
  rc.side = 0;
  EXPECT_THROW(run_interleaver(rc), std::invalid_argument);
}

TEST(Runner, RefreshDisabledImprovesUtilization) {
  auto with = base_config("DDR4-3200", "optimized", 60000);
  auto without = with;
  without.controller.refresh_mode = dram::RefreshMode::Disabled;
  const auto a = run_interleaver(with);
  const auto b = run_interleaver(without);
  EXPECT_GE(b.min_utilization(), a.min_utilization());
}


TEST(Streaming, MixedPhaseCoversAllData) {
  auto rc = base_config("DDR4-3200", "optimized", 0);
  rc.side = 80;
  const auto result = run_streaming(rc);
  // Both blocks fully transferred: 2x the triangle, half writes half reads.
  EXPECT_EQ(result.stats.bursts, 2 * triangular_number(80));
  EXPECT_EQ(result.stats.writes, triangular_number(80));
  EXPECT_EQ(result.stats.reads, triangular_number(80));
  EXPECT_GT(result.stats.utilization(), 0.5);
}

TEST(Streaming, ProtocolCleanWithChecker) {
  for (const char* mapping : {"row-major", "optimized"}) {
    auto rc = base_config("LPDDR5-8533", mapping, 10000);
    rc.check_protocol = true;
    EXPECT_NO_THROW(run_streaming(rc)) << mapping;
  }
}

TEST(Streaming, RegionsDoNotCollide) {
  // The read block must sit in a disjoint row region: with a tiny
  // rows_per_bank the shifted region exceeds the device and must throw.
  // One block needs 84 rows on this geometry: 100 rows fit one block but
  // not two, so the shifted read region must be rejected.
  auto rc = base_config("DDR4-3200", "optimized", 1000);
  rc.device.rows_per_bank = 100;
  EXPECT_THROW(run_streaming(rc), std::out_of_range);
}

TEST(Streaming, RequiresSide) {
  RunConfig rc;
  rc.device = *find_config("DDR3-800");
  rc.side = 0;
  EXPECT_THROW(run_streaming(rc), std::invalid_argument);
}

}  // namespace
}  // namespace tbi::sim
