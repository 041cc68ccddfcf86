/// \file test_scheduler_equivalence.cpp
/// The decomposed FR-FCFS pick (per-bank class heads, per-group timing
/// floors) must be observationally identical to the brute-force
/// replan-everything reference (Policy::FrFcfsOracle): same command
/// stream, command for command, and same PhaseStats — over random request
/// mixes on DDR3, DDR4, DDR5, LPDDR4 and LPDDR5 geometries across queue
/// depths, and over the interleaver's own streams on all ten devices.
#include "dram/controller.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "command_recorder.hpp"
#include "common/rng.hpp"
#include "dram/checker.hpp"
#include "dram/standards.hpp"
#include "interleaver/streams.hpp"
#include "mapping/factory.hpp"
#include "mapping/offset.hpp"
#include "sim/runner.hpp"

namespace tbi::dram {
namespace {

bool same_command(const Command& a, const Command& b) {
  return a.kind == b.kind && a.issue == b.issue && a.bank == b.bank &&
         a.row == b.row && a.column == b.column && a.data_start == b.data_start &&
         a.data_end == b.data_end;
}

void expect_same_stats(const PhaseStats& a, const PhaseStats& b) {
  EXPECT_EQ(a.bursts, b.bursts);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.busy, b.busy);
}

/// Random mix with enough structure to hit every scheduling regime:
/// clustered rows (row hits and conflicts), the first \p bank_pool banks
/// (all by default), both directions.
std::vector<Request> random_requests(const DeviceConfig& dev, Rng& rng,
                                     unsigned count, unsigned row_pool,
                                     double write_fraction, unsigned bank_pool = 0) {
  std::vector<Request> v;
  v.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    Request r;
    r.addr.bank =
        static_cast<std::uint32_t>(rng.uniform(bank_pool != 0 ? bank_pool : dev.banks));
    r.addr.row = static_cast<std::uint32_t>(rng.uniform(row_pool));
    r.addr.column = static_cast<std::uint32_t>(rng.uniform(dev.columns_per_page));
    r.is_write = rng.uniform_double() < write_fraction;
    v.push_back(r);
  }
  return v;
}

struct PolicyRun {
  std::vector<PhaseStats> stats;
  std::vector<Command> commands;
};

PolicyRun run_policy(const DeviceConfig& dev, ControllerConfig::Policy policy,
               unsigned queue_depth,
               const std::vector<std::vector<Request>>& phases) {
  ControllerConfig cfg;
  cfg.policy = policy;
  cfg.queue_depth = queue_depth;
  Controller ctl(dev, cfg);
  CommandRecorder recorder;
  ctl.set_observer(&recorder);
  PolicyRun run;
  for (const auto& reqs : phases) {
    VectorStream stream(reqs);
    run.stats.push_back(ctl.run_phase(stream, "phase"));
  }
  run.commands = std::move(recorder.commands);
  return run;
}

class SchedulerEquivalence : public ::testing::TestWithParam<const char*> {};

/// Runs both policies over \p phases and compares them command for command.
void expect_policies_agree(const DeviceConfig& dev, unsigned queue_depth,
                           const std::vector<std::vector<Request>>& phases,
                           const std::string& where) {
  const PolicyRun fast =
      run_policy(dev, ControllerConfig::Policy::FrFcfs, queue_depth, phases);
  const PolicyRun oracle =
      run_policy(dev, ControllerConfig::Policy::FrFcfsOracle, queue_depth, phases);
  ASSERT_EQ(fast.stats.size(), oracle.stats.size());
  for (std::size_t p = 0; p < fast.stats.size(); ++p) {
    expect_same_stats(fast.stats[p], oracle.stats[p]);
  }
  ASSERT_EQ(fast.commands.size(), oracle.commands.size()) << where;
  for (std::size_t c = 0; c < fast.commands.size(); ++c) {
    ASSERT_TRUE(same_command(fast.commands[c], oracle.commands[c]))
        << where << " command " << c << " (" << to_string(fast.commands[c].kind) << " vs "
        << to_string(oracle.commands[c].kind) << ")";
  }
}

TEST_P(SchedulerEquivalence, IncrementalMatchesOracleOnRandomStreams) {
  const DeviceConfig& dev = *find_config(GetParam());
  Rng rng(0xE9u ^ std::hash<std::string>{}(dev.name));
  for (const unsigned queue_depth : {1u, 3u, 16u, 64u, 128u}) {
    for (const unsigned row_pool : {2u, 8u, 64u}) {
      for (const double write_fraction : {0.0, 0.5, 1.0}) {
        // Two chained phases so bank/bus/refresh state carries across.
        const std::vector<std::vector<Request>> phases = {
            random_requests(dev, rng, 1500, row_pool, write_fraction),
            random_requests(dev, rng, 500, row_pool, 1.0 - write_fraction)};
        expect_policies_agree(dev, queue_depth, phases,
                              dev.name + " q" + std::to_string(queue_depth) + " rows " +
                                  std::to_string(row_pool) + " wf " +
                                  std::to_string(write_fraction));
      }
    }
  }
  // Long bins: every request in one or two banks, so a class-head refill
  // walks a bin as long as the queue.
  for (const unsigned queue_depth : {64u, 128u}) {
    for (const unsigned bank_pool : {1u, 2u}) {
      for (const unsigned row_pool : {2u, 8u, 64u}) {
        const std::vector<std::vector<Request>> phases = {
            random_requests(dev, rng, 1500, row_pool, 0.5, bank_pool),
            random_requests(dev, rng, 500, row_pool, 0.0, bank_pool)};
        expect_policies_agree(dev, queue_depth, phases,
                              dev.name + " q" + std::to_string(queue_depth) + " banks " +
                                  std::to_string(bank_pool) + " rows " +
                                  std::to_string(row_pool));
      }
    }
  }
}

std::string test_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& ch : name)
    if (ch == '-') ch = '_';
  return name;
}

// LPDDR5-8533: 16 banks in 4 groups with per-bank refresh; DDR3-800: one
// bank group and all-bank refresh.
INSTANTIATE_TEST_SUITE_P(AllFamilies, SchedulerEquivalence,
                         ::testing::Values("DDR4-3200", "DDR5-6400",
                                           "LPDDR4-4266", "LPDDR5-8533",
                                           "DDR3-800"),
                         test_name);

/// Right after a write burst the FIFO head is a read that tWTR keeps off
/// the bus, while a younger write hits an open row in another bank group
/// and lands on bus_free_: the direction exit serves that write after
/// evaluating two data_starts, without the fold.
TEST(DirectionExit, ServesTheOtherDirectionsOldestWhenTurnaroundHoldsTheHead) {
  const DeviceConfig& dev = *find_config("DDR4-3200");  // 4 bank groups
  auto request = [](std::uint32_t bank, std::uint32_t column, bool is_write) {
    Request r;
    r.addr = Address{.bank = bank, .row = 0, .column = column};
    r.is_write = is_write;
    return r;
  };
  // Phase 1 opens banks 0 and 1 with a write each. Phase 2 starts with
  // the read (bank 2, closed) at the FIFO head and the write hit (bank 0,
  // open) behind it.
  const std::vector<std::vector<Request>> phases = {
      {request(0, 0, true), request(1, 0, true)},
      {request(2, 0, false), request(0, 1, true)}};
  expect_policies_agree(dev, 8, phases, "direction exit");

  const PolicyRun fast = run_policy(dev, ControllerConfig::Policy::FrFcfs, 8, phases);
  std::vector<Command> data;
  for (const Command& c : fast.commands) {
    if (c.kind == CommandKind::Rd || c.kind == CommandKind::Wr) data.push_back(c);
  }
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(data[2].kind, CommandKind::Wr);  // the younger write goes first ...
  EXPECT_EQ(data[2].bank, 0u);
  EXPECT_EQ(data[2].data_start, data[1].data_end);  // ... landing on bus_free_
  EXPECT_EQ(data[3].kind, CommandKind::Rd);
  // Phase 2: the direction exit costs 2 (the held head and the write);
  // the lone read then costs 2 (its head test and a one-class fold).
  EXPECT_EQ(fast.stats[1].picks, 2u);
  EXPECT_EQ(fast.stats[1].pick_candidates, 4u);
}

/// One stream of the paper's traffic on a fresh controller per policy,
/// every command checked by a TimingChecker.
struct PaperRun {
  std::vector<PhaseStats> stats;
  std::vector<Command> commands;
  std::vector<std::string> violations;
};

/// Truncation of every walk: a few thousand bursts each.
constexpr std::uint64_t kPaperBursts = 3000;

PaperRun run_paper_streams(const DeviceConfig& dev, const std::string& spec,
                           bool streaming, ControllerConfig::Policy policy) {
  const std::uint64_t side = sim::paper_side_for(dev);
  const auto write_map = mapping::make_mapping(spec, dev, side);
  ControllerConfig cfg;
  cfg.policy = policy;
  Controller ctl(dev, cfg);
  CommandRecorder recorder;
  ctl.set_observer(&recorder);
  PaperRun run;
  if (streaming) {
    // Double-buffered operation as in sim::run_streaming, with the read
    // block in the upper half of the rows (disjoint from the written one).
    const mapping::RowOffsetMapping read_map(mapping::make_mapping(spec, dev, side),
                                             dev.rows_per_bank / 2, dev.rows_per_bank);
    interleaver::StreamingPhaseStream stream(*write_map, read_map, kPaperBursts);
    run.stats.push_back(ctl.run_phase(stream, "streaming"));
  } else {
    interleaver::WritePhaseStream write(*write_map, kPaperBursts);
    run.stats.push_back(ctl.run_phase(write, "write"));
    interleaver::ReadPhaseStream read(*write_map, kPaperBursts);
    run.stats.push_back(ctl.run_phase(read, "read"));
  }
  TimingChecker checker(dev, ctl.refresh_mode());
  for (const Command& c : recorder.commands) checker.on_command(c);
  run.violations = checker.finish();
  run.commands = std::move(recorder.commands);
  return run;
}

class PaperStreamEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperStreamEquivalence, IncrementalMatchesOracleOnInterleaverStreams) {
  const DeviceConfig& dev = *find_config(GetParam());
  for (const std::string spec : {"row-major", "optimized"}) {
    for (const bool streaming : {false, true}) {
      const std::string where = dev.name + " " + spec + (streaming ? " mixed" : " phases");
      const PaperRun fast =
          run_paper_streams(dev, spec, streaming, ControllerConfig::Policy::FrFcfs);
      const PaperRun oracle =
          run_paper_streams(dev, spec, streaming, ControllerConfig::Policy::FrFcfsOracle);
      EXPECT_TRUE(fast.violations.empty()) << where << ": " << fast.violations.front();
      ASSERT_EQ(fast.stats.size(), oracle.stats.size());
      std::uint64_t refreshes = 0;
      for (std::size_t p = 0; p < fast.stats.size(); ++p) {
        EXPECT_EQ(fast.stats[p].bursts, streaming ? 2 * kPaperBursts : kPaperBursts)
            << where;
        expect_same_stats(fast.stats[p], oracle.stats[p]);
        refreshes += fast.stats[p].refreshes;
      }
      EXPECT_GT(refreshes, 0u) << where;  // refresh closes rows mid-stream
      ASSERT_EQ(fast.commands.size(), oracle.commands.size()) << where;
      for (std::size_t c = 0; c < fast.commands.size(); ++c) {
        ASSERT_TRUE(same_command(fast.commands[c], oracle.commands[c]))
            << where << " command " << c << " (" << to_string(fast.commands[c].kind)
            << " vs " << to_string(oracle.commands[c].kind) << ")";
      }
    }
  }
}

std::vector<const char*> standard_names() {
  std::vector<const char*> names;
  for (const DeviceConfig& dev : standard_configs()) names.push_back(dev.name.c_str());
  return names;
}

INSTANTIATE_TEST_SUITE_P(TableOneDevices, PaperStreamEquivalence,
                         ::testing::ValuesIn(standard_names()), test_name);

}  // namespace
}  // namespace tbi::dram
