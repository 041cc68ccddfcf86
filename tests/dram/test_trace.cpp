#include "dram/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "command_recorder.hpp"
#include "dram/standards.hpp"
#include "dram/stream.hpp"
#include "interleaver/streams.hpp"
#include "mapping/factory.hpp"

namespace tbi::dram {
namespace {

TEST(Trace, AllKindsRoundTrip) {
  const std::pair<CommandKind, const char*> kinds[] = {
      {CommandKind::Act, "ACT"}, {CommandKind::Pre, "PRE"},
      {CommandKind::Rd, "RD"},   {CommandKind::Wr, "WR"},
      {CommandKind::RefAb, "REFab"}, {CommandKind::RefGrp, "REFgrp"}};
  for (const auto& [kind, name] : kinds) {
    const Command cmd{.kind = kind, .issue = 1, .bank = 2, .row = 3, .column = 4,
                      .data_start = 5, .data_end = 6};
    EXPECT_EQ(format_command(cmd), std::string("1 ") + name + " 2 3 4 5 6");
  }
}

/// 2000 mixed requests over four rows of every bank.
std::vector<Request> mixed_requests(const DeviceConfig& dev) {
  std::vector<Request> reqs;
  for (unsigned i = 0; i < 2000; ++i) {
    reqs.push_back(Request{Address{i % dev.banks, (i / 512) % 4,
                                   (i / dev.banks) % dev.columns_per_page},
                           i % 2 == 0, 0});
  }
  return reqs;
}

TEST(Trace, RecorderCapturesControllerRun) {
  const DeviceConfig& dev = *find_config("DDR4-3200");
  std::ostringstream sink;
  TraceRecorder recorder(sink);
  recorder.comment("write phase");
  Controller traced(dev, {});
  traced.set_observer(&recorder);
  VectorStream traced_stream(mixed_requests(dev));
  const PhaseStats stats = traced.run_phase(traced_stream, "trace-test");

  // The same run seen by a collecting observer.
  CommandRecorder collected;
  Controller plain(dev, {});
  plain.set_observer(&collected);
  VectorStream plain_stream(mixed_requests(dev));
  plain.run_phase(plain_stream, "trace-test");

  std::istringstream lines(sink.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "# write phase");
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_LT(n, collected.commands.size());
    EXPECT_EQ(line, format_command(collected.commands[n])) << "command " << n;
    ++n;
  }
  EXPECT_EQ(n, collected.commands.size());
  EXPECT_EQ(recorder.commands_written(), collected.commands.size());

  std::map<CommandKind, std::uint64_t> kinds;
  for (const Command& c : collected.commands) ++kinds[c.kind];
  EXPECT_EQ(kinds[CommandKind::Rd], stats.reads);
  EXPECT_EQ(kinds[CommandKind::Wr], stats.writes);
  EXPECT_EQ(kinds[CommandKind::Rd] + kinds[CommandKind::Wr], stats.bursts);
  EXPECT_EQ(kinds[CommandKind::Act], stats.activates);
  EXPECT_EQ(kinds[CommandKind::Pre], stats.precharges);
  EXPECT_EQ(kinds[CommandKind::RefAb] + kinds[CommandKind::RefGrp], stats.refreshes);
  EXPECT_GT(collected.commands.back().issue, collected.commands.front().issue);
}

TEST(Trace, DiagonalMappingBalancesBanks) {
  // The diagonal mapping assigns each anti-diagonal (x + y = const) to one
  // bank, and anti-diagonals of a *triangle* vary in length, so per-bank
  // loads differ by roughly NB/side — bounded, not exactly equal. For
  // side 200 / 16 banks that is ~14 %; what must never happen is a bank
  // being starved or doubly loaded (imbalance near 1).
  const DeviceConfig& dev = *find_config("DDR4-3200");
  CommandRecorder recorder;
  Controller ctl(dev, {});
  ctl.set_observer(&recorder);

  const auto m = mapping::make_mapping("optimized", dev, 200);
  interleaver::WritePhaseStream stream(*m);
  ctl.run_phase(stream, "balance");

  std::vector<std::uint64_t> bursts(dev.banks, 0);
  for (const Command& c : recorder.commands) {
    if (c.kind != CommandKind::Rd && c.kind != CommandKind::Wr) continue;
    ASSERT_LT(c.bank, dev.banks);
    ++bursts[c.bank];
  }
  const auto [lo, hi] = std::minmax_element(bursts.begin(), bursts.end());
  EXPECT_GT(*lo, 0u);
  EXPECT_LT(static_cast<double>(*hi - *lo) / static_cast<double>(*hi), 0.25);
}

}  // namespace
}  // namespace tbi::dram
