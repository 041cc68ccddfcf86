#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dram/standards.hpp"
#include "sim/experiments.hpp"
#include "sim/runner.hpp"

namespace tbi::sim {
namespace {

TEST(JobSeed, DeterministicAndCollisionFree) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = job_seed(42, i);
    EXPECT_EQ(s, job_seed(42, i));
    EXPECT_TRUE(seen.insert(s).second) << "seed collision at index " << i;
  }
  EXPECT_NE(job_seed(1, 0), job_seed(2, 0));
}

TEST(SweepMap, ThrowingJobPropagatesAndNextSweepWorks) {
  SweepOptions opt;
  opt.threads = 4;
  EXPECT_THROW(sweep_map(16, opt,
                         [](std::uint64_t i, std::uint64_t) -> int {
                           if (i == 7) throw std::runtime_error("cell failed");
                           return static_cast<int>(i);
                         }),
               std::runtime_error);
  const auto out = sweep_map(16, opt, [](std::uint64_t i, std::uint64_t) {
    return static_cast<int>(i) + 1;
  });
  ASSERT_EQ(out.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i + 1);
}

TEST(SweepMap, ResultsAreIndexOrdered) {
  SweepOptions opt;
  opt.threads = 4;
  const auto out = sweep_map(64, opt, [](std::uint64_t i, std::uint64_t) {
    return i * i;
  });
  ASSERT_EQ(out.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepMap, SeedsMatchSchedule) {
  SweepOptions opt;
  opt.threads = 3;
  opt.base_seed = 17;
  const auto seeds = sweep_map(32, opt, [](std::uint64_t, std::uint64_t seed) {
    return seed;
  });
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(seeds[i], job_seed(17, i));
}

TEST(SweepMap, ProgressReachesTotal) {
  SweepOptions opt;
  opt.threads = 4;
  std::uint64_t last = 0;
  opt.progress = [&](const SweepProgress& p) {
    EXPECT_EQ(p.total, 20u);
    last = p.completed;
  };
  sweep_map(20, opt, [](std::uint64_t i, std::uint64_t) { return i; });
  EXPECT_EQ(last, 20u);
}

TEST(SweepGrid, ExpandIsRowMajorCartesian) {
  SweepGrid grid;
  grid.devices = {"A", "B"};
  grid.mapping_specs = {"row-major", "optimized"};
  grid.channels = {"none", "bsc"};
  EXPECT_EQ(grid.size(), 8u);
  const auto cells = grid.expand();
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[0].device, "A");
  EXPECT_EQ(cells[0].mapping_spec, "row-major");
  EXPECT_EQ(cells[0].channel, "none");
  EXPECT_EQ(cells[1].channel, "bsc");
  EXPECT_EQ(cells[2].mapping_spec, "optimized");
  EXPECT_EQ(cells[4].device, "B");
}

TEST(SweepGrid, PaperGridCoversTableI) {
  const auto grid = SweepGrid::paper_bandwidth_grid();
  EXPECT_EQ(grid.devices.size(), 10u);
  EXPECT_EQ(grid.mapping_specs.size(), 2u);
  EXPECT_EQ(grid.size(), 20u);
}

TEST(Scenario, LabelIsInjectiveOverTheFullGrid) {
  // Regression: the label used to elide the "triangular" interleaver and
  // the rs_k of channel-free cells, so e.g. RS(255,223) and RS(255,191)
  // cells with channel == "none" collided. Every axis value must produce
  // a distinct label.
  SweepGrid grid;
  grid.devices = {"DDR4-3200", "LPDDR5-8533"};
  grid.mapping_specs = {"row-major", "optimized"};
  grid.interleavers = {"none", "block", "triangular", "two-stage"};
  grid.channels = {"none", "bsc", "gilbert-elliott", "leo"};
  grid.rs_ks = {239, 223, 191};
  const auto cells = grid.expand();
  ASSERT_EQ(cells.size(), grid.size());
  std::set<std::string> labels;
  for (const auto& cell : cells) {
    EXPECT_TRUE(labels.insert(cell.label()).second)
        << "duplicate label: " << cell.label();
  }
}

/// The 20 paper-grid cells (device-major, mapping inner) on the paper
/// geometry, each phase cut to \p max_bursts.
std::vector<RunConfig> paper_grid_configs(std::uint64_t max_bursts) {
  std::vector<RunConfig> configs;
  for (const auto& device : dram::standard_configs()) {
    for (const char* mapping : {"row-major", "optimized"}) {
      RunConfig rc;
      rc.device = device;
      rc.mapping_spec = mapping;
      rc.side = paper_side_for(device);
      rc.max_bursts_per_phase = max_bursts;
      configs.push_back(std::move(rc));
    }
  }
  return configs;
}

std::vector<InterleaverRun> run_on(const std::vector<RunConfig>& configs,
                                   unsigned threads) {
  SweepOptions options;
  options.threads = threads;
  return sweep_map(configs.size(), options, [&](std::uint64_t i, std::uint64_t) {
    return run_interleaver(configs[i]);
  });
}

bool stats_equal(const dram::PhaseStats& a, const dram::PhaseStats& b) {
  return a.bursts == b.bursts && a.reads == b.reads && a.writes == b.writes &&
         a.activates == b.activates && a.precharges == b.precharges &&
         a.refreshes == b.refreshes && a.row_hits == b.row_hits &&
         a.row_misses == b.row_misses && a.row_conflicts == b.row_conflicts &&
         a.start == b.start && a.end == b.end && a.busy == b.busy;
}

TEST(BandwidthSweep, IdenticalRecordsForAnyThreadCount) {
  // The acceptance bar of this subsystem: a Table-I-shaped sweep must
  // produce byte-identical records on one worker and on many.
  const auto configs = paper_grid_configs(8000);
  const auto serial = run_on(configs, 1);
  const auto parallel4 = run_on(configs, 4);
  const auto parallel7 = run_on(configs, 7);
  ASSERT_EQ(serial.size(), 20u);
  ASSERT_EQ(parallel4.size(), serial.size());
  ASSERT_EQ(parallel7.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].device_name, parallel4[i].device_name);
    EXPECT_EQ(serial[i].mapping_name, parallel4[i].mapping_name);
    EXPECT_TRUE(stats_equal(serial[i].write.stats, parallel4[i].write.stats)) << i;
    EXPECT_TRUE(stats_equal(serial[i].read.stats, parallel4[i].read.stats)) << i;
    EXPECT_TRUE(stats_equal(serial[i].write.stats, parallel7[i].write.stats)) << i;
    EXPECT_TRUE(stats_equal(serial[i].read.stats, parallel7[i].read.stats)) << i;
    EXPECT_EQ(serial[i].write.energy.total_nj(), parallel4[i].write.energy.total_nj());
  }
}

TEST(BandwidthSweep, GoldenDdr4Counters) {
  // Golden regression on a small Table-1 configuration: the exact command
  // counts and bus occupancy of the optimized mapping on DDR4-3200 with
  // 12000-burst phases. Any controller/mapping change that alters these
  // numbers must be deliberate.
  RunConfig rc;
  rc.device = *dram::find_config("DDR4-3200");
  rc.mapping_spec = "optimized";
  rc.side = paper_side_for(rc.device);
  rc.max_bursts_per_phase = 12000;
  const InterleaverRun run = run_interleaver(rc);
  const auto& w = run.write.stats;
  EXPECT_EQ(w.bursts, 12000u);
  EXPECT_EQ(w.activates, 3181u);
  EXPECT_EQ(w.row_hits, 8819u);
  EXPECT_EQ(w.row_misses, 64u);
  EXPECT_EQ(w.row_conflicts, 3117u);
  EXPECT_EQ(w.elapsed(), 30965000);
  EXPECT_EQ(w.busy, 30000000);
  const auto& r = run.read.stats;
  EXPECT_EQ(r.bursts, 12000u);
  EXPECT_EQ(r.activates, 6205u);
  EXPECT_EQ(r.elapsed(), 32493750);
  EXPECT_EQ(r.busy, 30000000);
}

TEST(BandwidthSweep, GoldenTable1Utilizations) {
  // Same pin at the Table-1 row level, both mappings, two devices.
  Table1Options o;
  o.max_bursts_per_phase = 12000;
  o.threads = 2;
  const auto rows = run_table1(o);
  ASSERT_EQ(rows.size(), 10u);
  const Table1Row& ddr4 = rows[3];
  const Table1Row& lpddr4 = rows[7];
  ASSERT_EQ(ddr4.config, "DDR4-3200");
  ASSERT_EQ(lpddr4.config, "LPDDR4-4266");
  EXPECT_NEAR(ddr4.row_major_write, 0.9696969697, 1e-9);
  EXPECT_NEAR(ddr4.row_major_read, 0.6338809360, 1e-9);
  EXPECT_NEAR(ddr4.optimized_write, 0.9688357823, 1e-9);
  EXPECT_NEAR(ddr4.optimized_read, 0.9232544720, 1e-9);
  EXPECT_NEAR(lpddr4.row_major_write, 1.0000000000, 1e-9);
  EXPECT_NEAR(lpddr4.row_major_read, 0.4124392756, 1e-9);
  EXPECT_NEAR(lpddr4.optimized_write, 0.9717095272, 1e-9);
  EXPECT_NEAR(lpddr4.optimized_read, 0.9948938640, 1e-9);
}

// Resolving a requested thread count, with more jobs than any cap so only
// the request decides.
TEST(ResolveThreads, ClampsNonsenseRequests) {
  EXPECT_GE(effective_threads(0, 1000), 1u);  // "all cores" never yields zero
  EXPECT_EQ(effective_threads(4, 1000), 4u);
  // A CLI "--threads -1" wraps to UINT_MAX through the unsigned cast; it
  // must be clamped, not spawn billions of threads.
  EXPECT_EQ(effective_threads(0xFFFFFFFFu, 1000), 256u);
}

TEST(EffectiveThreads, ClampsToJobCountAndNeverZero) {
  EXPECT_EQ(effective_threads(8, 3), 3u);   // never spawn idle workers
  EXPECT_EQ(effective_threads(2, 100), 2u);
  EXPECT_EQ(effective_threads(1, 0), 1u);   // the calling thread always runs
  EXPECT_LE(effective_threads(0, 2), 2u);
}

TEST(SweepMap, EmptyGridReturnsWithoutSpawningAPool) {
  SweepOptions options;
  options.threads = 8;
  bool ran = false;
  const auto results = sweep_map(0, options, [&](std::uint64_t, std::uint64_t) {
    ran = true;
    return 1;
  });
  EXPECT_TRUE(results.empty());
  EXPECT_FALSE(ran);
}

TEST(SweepMap, OneThreadRunsOnTheCallingThread) {
  SweepOptions options;
  options.threads = 1;
  const std::thread::id caller = std::this_thread::get_id();
  const auto ids = sweep_map(5, options, [](std::uint64_t, std::uint64_t) {
    return std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(SweepMap, AFailedJobStopsFurtherClaims) {
  SweepOptions options;
  options.threads = 1;
  std::uint64_t started = 0;
  EXPECT_THROW(sweep_map(100, options,
                         [&](std::uint64_t i, std::uint64_t) -> int {
                           ++started;
                           if (i == 3) throw std::runtime_error("cell failed");
                           return 0;
                         }),
               std::runtime_error);
  EXPECT_EQ(started, 4u);  // jobs 0..3; none after the failure
}

TEST(SweepMap, MoreThreadsThanJobsCompletesAndStaysOrdered) {
  SweepOptions options;
  options.threads = 64;  // far more than the 3 jobs
  const auto results = sweep_map(3, options, [](std::uint64_t i, std::uint64_t) {
    return static_cast<int>(i) + 1;
  });
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], 1);
  EXPECT_EQ(results[1], 2);
  EXPECT_EQ(results[2], 3);
}

}  // namespace
}  // namespace tbi::sim
