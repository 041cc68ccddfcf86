#include "dram/controller.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "dram/checker.hpp"
#include "dram/standards.hpp"

namespace tbi::dram {
namespace {

std::vector<Request> sequential_hits(std::uint32_t bank, std::uint32_t row,
                                     unsigned count, bool write,
                                     unsigned columns_per_page) {
  std::vector<Request> v;
  for (unsigned i = 0; i < count; ++i) {
    v.push_back(Request{Address{bank, row, i % columns_per_page}, write, 0});
  }
  return v;
}

PhaseStats run(const DeviceConfig& dev, std::vector<Request> reqs,
               ControllerConfig cfg = {}) {
  Controller ctl(dev, cfg);
  VectorStream stream(std::move(reqs));
  return ctl.run_phase(stream, "test");
}

TEST(Controller, CountsAreConsistent) {
  const DeviceConfig& dev = *find_config("DDR4-3200");
  const auto stats = run(dev, sequential_hits(0, 0, 500, false, dev.columns_per_page));
  EXPECT_EQ(stats.bursts, 500u);
  EXPECT_EQ(stats.reads, 500u);
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.row_hits + stats.row_misses + stats.row_conflicts, 500u);
  EXPECT_EQ(stats.row_misses, 1u);  // only the very first access
  EXPECT_EQ(stats.busy, 500 * dev.burst_time);
  EXPECT_GT(stats.end, stats.start);
}

TEST(Controller, SingleBankSamePageIsCcdLLimited) {
  // DDR5-6400: tCCD_L (5 ns) is twice the burst time (2.5 ns), so a
  // same-bank hit stream can only reach ~50 % utilization.
  const DeviceConfig& dev = *find_config("DDR5-6400");
  ControllerConfig cfg;
  cfg.refresh_mode = RefreshMode::Disabled;
  const auto stats = run(dev, sequential_hits(0, 0, 2000, false, dev.columns_per_page), cfg);
  EXPECT_NEAR(stats.utilization(),
              static_cast<double>(dev.burst_time) / dev.timing.tCCD_L, 0.02);
}

TEST(Controller, BankGroupRotationReachesFullBandwidth) {
  // Same device, but rotating across bank groups engages tCCD_S == burst.
  const DeviceConfig& dev = *find_config("DDR5-6400");
  ControllerConfig cfg;
  cfg.refresh_mode = RefreshMode::Disabled;
  std::vector<Request> reqs;
  for (unsigned i = 0; i < 4000; ++i) {
    const std::uint32_t bank = i % dev.bank_groups;  // group-major ids
    reqs.push_back(Request{Address{bank, 0, (i / dev.bank_groups) %
                                               dev.columns_per_page},
                           false, 0});
  }
  const auto stats = run(dev, std::move(reqs), cfg);
  EXPECT_GT(stats.utilization(), 0.98);
}

TEST(Controller, SingleBankRowPingPongIsTrcLimited) {
  const DeviceConfig& dev = *find_config("DDR4-3200");
  ControllerConfig cfg;
  cfg.refresh_mode = RefreshMode::Disabled;
  // FCFS keeps the strict row alternation (FR-FCFS would legally batch
  // requests by row and dodge most of the conflicts).
  cfg.policy = ControllerConfig::Policy::Fcfs;
  std::vector<Request> reqs;
  for (unsigned i = 0; i < 1000; ++i) {
    reqs.push_back(Request{Address{0, i % 2, 0}, false, 0});
  }
  const auto stats = run(dev, std::move(reqs), cfg);
  // One burst per row cycle.
  const double expected = static_cast<double>(dev.burst_time) / dev.timing.tRC;
  EXPECT_NEAR(stats.utilization(), expected, 0.01);
  EXPECT_EQ(stats.row_conflicts, 999u);  // all but the first (miss) access
}

TEST(Controller, EightBankConflictRotationIsFawLimited) {
  // DDR3-1600 all-miss rotation: ACT rate limited by tFAW/4 = 7.5 ns
  // against a 5 ns burst -> ~2/3 utilization.
  const DeviceConfig& dev = *find_config("DDR3-1600");
  ControllerConfig cfg;
  cfg.refresh_mode = RefreshMode::Disabled;
  std::vector<Request> reqs;
  for (unsigned i = 0; i < 8000; ++i) {
    const std::uint32_t bank = i % dev.banks;
    const std::uint32_t row = static_cast<std::uint32_t>(i / dev.banks);
    reqs.push_back(Request{Address{bank, row, 0}, false, 0});
  }
  const auto stats = run(dev, std::move(reqs), cfg);
  const double expected = static_cast<double>(dev.burst_time) /
                          (static_cast<double>(dev.timing.tFAW) / 4.0);
  EXPECT_NEAR(stats.utilization(), expected, 0.03);
}

TEST(Controller, FrFcfsBeatsFcfsOnHitConflictMix) {
  const DeviceConfig& dev = *find_config("DDR4-3200");
  // Interleave: conflicting accesses on bank 0, hits on banks 1..15.
  std::vector<Request> reqs;
  for (unsigned i = 0; i < 4000; ++i) {
    if (i % 8 == 0) {
      reqs.push_back(Request{Address{0, static_cast<std::uint32_t>(i), 0}, false, 0});
    } else {
      const std::uint32_t bank = 1 + (i % 15);
      reqs.push_back(Request{Address{bank, 0, i % dev.columns_per_page}, false, 0});
    }
  }
  ControllerConfig frfcfs;
  ControllerConfig fcfs;
  fcfs.policy = ControllerConfig::Policy::Fcfs;
  const auto a = run(dev, reqs, frfcfs);
  const auto b = run(dev, reqs, fcfs);
  EXPECT_GT(a.utilization(), b.utilization());
}

TEST(Controller, WriteToReadTurnaroundCostsBandwidth) {
  const DeviceConfig& dev = *find_config("DDR4-3200");
  ControllerConfig cfg;
  cfg.refresh_mode = RefreshMode::Disabled;
  cfg.policy = ControllerConfig::Policy::Fcfs;  // keep the alternation
  std::vector<Request> alternating;
  std::vector<Request> pure;
  for (unsigned i = 0; i < 2000; ++i) {
    alternating.push_back(
        Request{Address{i % dev.banks, 0, i % dev.columns_per_page}, i % 2 == 0, 0});
    pure.push_back(
        Request{Address{i % dev.banks, 0, i % dev.columns_per_page}, false, 0});
  }
  const auto mixed = run(dev, std::move(alternating), cfg);
  const auto reads = run(dev, std::move(pure), cfg);
  EXPECT_LT(mixed.utilization(), reads.utilization() - 0.2)
      << "tWTR and the RD->WR bubble must hurt alternating traffic";
}

TEST(Controller, RejectsOutOfRangeAddresses) {
  const DeviceConfig& dev = *find_config("DDR3-800");
  EXPECT_THROW(run(dev, {Request{Address{dev.banks, 0, 0}, false, 0}}),
               std::out_of_range);
  EXPECT_THROW(run(dev, {Request{Address{0, dev.rows_per_bank, 0}, false, 0}}),
               std::out_of_range);
  EXPECT_THROW(run(dev, {Request{Address{0, 0, dev.columns_per_page}, false, 0}}),
               std::out_of_range);
}

TEST(Controller, RejectsZeroQueueDepth) {
  ControllerConfig cfg;
  cfg.queue_depth = 0;
  EXPECT_THROW(Controller(*find_config("DDR3-800"), cfg), std::invalid_argument);
}

TEST(Controller, UnsetRefreshModeIsTheDevicesDefault) {
  ControllerConfig off;
  off.refresh_mode = RefreshMode::Disabled;
  for (const auto& dev : standard_configs()) {
    EXPECT_EQ(Controller(dev, {}).refresh_mode(), dev.default_refresh) << dev.name;
    EXPECT_EQ(Controller(dev, off).refresh_mode(), RefreshMode::Disabled) << dev.name;
    // Long enough to span several refresh intervals on every device.
    const auto hits = sequential_hits(0, 0, 20000, false, dev.columns_per_page);
    EXPECT_GT(run(dev, hits).refreshes, 0u) << dev.name;
    EXPECT_EQ(run(dev, hits, off).refreshes, 0u) << dev.name;
  }
}

TEST(Controller, EmptyStreamYieldsEmptyStats) {
  const auto stats = run(*find_config("DDR3-800"), {});
  EXPECT_EQ(stats.bursts, 0u);
  EXPECT_DOUBLE_EQ(stats.utilization(), 0.0);
}

TEST(Controller, PhasesChainOnOneController) {
  const DeviceConfig& dev = *find_config("DDR4-3200");
  Controller ctl(dev, {});
  VectorStream s1(sequential_hits(0, 0, 100, true, dev.columns_per_page));
  VectorStream s2(sequential_hits(0, 0, 100, false, dev.columns_per_page));
  const auto w = ctl.run_phase(s1, "write");
  const auto r = ctl.run_phase(s2, "read");
  EXPECT_GE(r.start, w.end) << "second phase must continue after the first";
  // Bank 0 row 0 stays open across phases: no new activate needed.
  EXPECT_EQ(r.row_misses + r.row_conflicts, 0u);
}

TEST(Controller, RandomTrafficIsProtocolClean) {
  // Fuzz: random addresses and directions on every device; the
  // independent checker must accept every command stream.
  Rng rng(2024);
  for (const auto& dev : standard_configs()) {
    ControllerConfig cfg;
    Controller ctl(dev, cfg);
    TimingChecker checker(dev, ctl.refresh_mode());
    ctl.set_observer(&checker);
    std::vector<Request> reqs;
    for (unsigned i = 0; i < 3000; ++i) {
      reqs.push_back(Request{
          Address{static_cast<std::uint32_t>(rng.uniform(dev.banks)),
                  static_cast<std::uint32_t>(rng.uniform(64)),
                  static_cast<std::uint32_t>(rng.uniform(dev.columns_per_page))},
          rng.bernoulli(0.5), 0});
    }
    VectorStream stream(std::move(reqs));
    ctl.run_phase(stream, "fuzz");
    const auto violations = checker.finish();
    EXPECT_TRUE(violations.empty())
        << dev.name << ": " << (violations.empty() ? "" : violations.front());
  }
}

}  // namespace
}  // namespace tbi::dram
