#include "dram/checker.hpp"

#include <gtest/gtest.h>

#include "dram/standards.hpp"

namespace tbi::dram {
namespace {

// Hand-crafted command streams that violate exactly one rule each; the
// checker must catch every one. Times in ps on DDR4-3200 timing.

const DeviceConfig& dev() { return *find_config("DDR4-3200"); }

Command act(Ps t, std::uint32_t bank, std::uint32_t row) {
  return Command{.kind = CommandKind::Act, .issue = t, .bank = bank, .row = row};
}

Command pre(Ps t, std::uint32_t bank) {
  return Command{.kind = CommandKind::Pre, .issue = t, .bank = bank};
}

Command rd(Ps t, std::uint32_t bank, std::uint32_t row, Ps data_start) {
  return Command{.kind = CommandKind::Rd, .issue = t, .bank = bank, .row = row,
                 .column = 0, .data_start = data_start,
                 .data_end = data_start + dev().burst_time};
}

Command wr(Ps t, std::uint32_t bank, std::uint32_t row, Ps data_start) {
  Command c = rd(t, bank, row, data_start);
  c.kind = CommandKind::Wr;
  return c;
}

std::vector<std::string> check(std::initializer_list<Command> cmds) {
  TimingChecker checker(dev(), RefreshMode::Disabled);
  for (const auto& c : cmds) checker.on_command(c);
  return checker.finish();
}

TEST(Checker, AcceptsLegalMissSequence) {
  const TimingParams& t = dev().timing;
  const Ps a = 0;
  const Ps cas = a + t.tRCD;
  EXPECT_TRUE(check({act(a, 0, 5), rd(cas, 0, 5, cas + t.CL)}).empty());
}

TEST(Checker, CatchesActToOpenBank) {
  const auto v = check({act(0, 0, 1), act(100000, 0, 2)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("ACT to open bank"), std::string::npos);
}

TEST(Checker, CatchesRcdViolation) {
  const TimingParams& t = dev().timing;
  const auto v = check({act(0, 0, 1), rd(t.tRCD - 1, 0, 1, t.tRCD - 1 + t.CL)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("tRCD"), std::string::npos);
}

TEST(Checker, CatchesRasViolation) {
  const TimingParams& t = dev().timing;
  const auto v = check({act(0, 0, 1), pre(t.tRAS - 1, 0)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("tRAS"), std::string::npos);
}

TEST(Checker, CatchesRpViolation) {
  const TimingParams& t = dev().timing;
  const auto v = check({act(0, 0, 1), pre(t.tRAS, 0),
                        act(t.tRAS + t.tRP - 1, 0, 2)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("tRP"), std::string::npos);
}

TEST(Checker, CatchesRrdSViolation) {
  const TimingParams& t = dev().timing;
  // Banks 0 and 1 are in different groups (group-major ids).
  const auto v = check({act(0, 0, 1), act(t.tRRD_S - 1, 1, 1)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("tRRD_S"), std::string::npos);
}

TEST(Checker, CatchesRrdLViolation) {
  const TimingParams& t = dev().timing;
  // Banks 0 and 4 share bank group 0 (16 banks, 4 groups).
  const auto v = check({act(0, 0, 1), act(t.tRRD_L - 1, 4, 1)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("tRRD_L"), std::string::npos);
}

TEST(Checker, CatchesFawViolation) {
  const TimingParams& t = dev().timing;
  // Five activates, spaced legally pairwise but all within tFAW.
  const Ps d = t.tRRD_L;
  const auto v = check({act(0 * d, 0, 1), act(1 * d, 1, 1), act(2 * d, 2, 1),
                        act(3 * d, 3, 1), act(4 * d, 4, 1)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("tFAW"), std::string::npos);
}

TEST(Checker, AcceptsFiveActsOutsideFaw) {
  const TimingParams& t = dev().timing;
  const Ps d = t.tFAW / 4 + 100;
  EXPECT_TRUE(check({act(0 * d, 0, 1), act(1 * d, 1, 1), act(2 * d, 2, 1),
                     act(3 * d, 3, 1), act(4 * d, 4, 1)})
                  .empty());
}

TEST(Checker, CatchesCasToClosedBank) {
  const TimingParams& t = dev().timing;
  const auto v = check({rd(0, 0, 1, t.CL)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("CAS to closed bank"), std::string::npos);
}

TEST(Checker, CatchesCasToWrongRow) {
  const TimingParams& t = dev().timing;
  const Ps cas = t.tRCD;
  const auto v = check({act(0, 0, 1), rd(cas, 0, 2, cas + t.CL)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("wrong row"), std::string::npos);
}

TEST(Checker, CatchesCcdSViolation) {
  const TimingParams& t = dev().timing;
  const Ps a = 0;
  const Ps cas1 = a + t.tRCD + t.tRRD_S;  // both banks activated by then
  const auto v = check({act(0, 0, 1), act(t.tRRD_S, 1, 1),
                        rd(cas1, 0, 1, cas1 + t.CL),
                        rd(cas1 + t.tCCD_S - 1, 1, 1, cas1 + t.tCCD_S - 1 + t.CL)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("tCCD_S"), std::string::npos);
}

TEST(Checker, CatchesCcdLViolation) {
  const TimingParams& t = dev().timing;
  const Ps cas1 = t.tRRD_L + t.tRCD;
  // Banks 0 and 4: same bank group -> tCCD_L applies.
  const Ps cas2 = cas1 + t.tCCD_L - 1;
  const auto v = check({act(0, 0, 1), act(t.tRRD_L, 4, 1),
                        rd(cas1, 0, 1, cas1 + t.CL), rd(cas2, 4, 1, cas2 + t.CL)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("tCCD_L"), std::string::npos);
}

TEST(Checker, CatchesDataBusOverlap) {
  const TimingParams& t = dev().timing;
  const Ps cas1 = t.tRRD_S + t.tRCD;
  const Ps cas2 = cas1 + t.tCCD_S;
  // Legal command spacing but data_start overlapping the previous burst.
  TimingChecker checker(dev(), RefreshMode::Disabled);
  checker.on_command(act(0, 0, 1));
  checker.on_command(act(t.tRRD_S, 1, 1));
  checker.on_command(rd(cas1, 0, 1, cas1 + t.CL));
  Command second = rd(cas2, 1, 1, cas1 + t.CL + dev().burst_time / 2);
  checker.on_command(second);
  const auto v = checker.finish();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("data bus overlap"), std::string::npos);
}

TEST(Checker, CatchesReadToWriteBubbleViolation) {
  const TimingParams& t = dev().timing;
  ASSERT_GT(t.tRTW_bubble, 0);
  // Banks 0 and 1 sit in different groups; the WR's CAS is legal and its
  // burst would follow the RD's back to back, without the RD->WR bubble.
  const Ps cas1 = t.tRRD_S + t.tRCD;
  const Ps cas2 = cas1 + t.tCCD_S;
  const Command read = rd(cas1, 0, 1, cas1 + t.CL);
  ASSERT_GE(read.data_end, cas2 + t.CWL);
  const auto v = check({act(0, 0, 1), act(t.tRRD_S, 1, 1), read,
                        wr(cas2, 1, 1, read.data_end)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("tRTW"), std::string::npos);
  // The same burst one bubble later is legal.
  EXPECT_TRUE(check({act(0, 0, 1), act(t.tRRD_S, 1, 1), read,
                     wr(cas2, 1, 1, read.data_end + t.tRTW_bubble)})
                  .empty());
}

TEST(Checker, CatchesCasLatencyViolation) {
  const TimingParams& t = dev().timing;
  const Ps cas = t.tRCD;
  const auto v = check({act(0, 0, 1), rd(cas, 0, 1, cas + t.CL - 1)});
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("CAS latency"), std::string::npos);
}

TEST(Checker, CatchesRefreshWithOpenBank) {
  TimingChecker checker(dev(), RefreshMode::AllBank);
  checker.on_command(act(0, 0, 1));
  checker.on_command(Command{.kind = CommandKind::RefAb, .issue = 1000000});
  const auto v = checker.finish();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("REFab with open bank"), std::string::npos);
}

TEST(Checker, SortsOutOfOrderEmission) {
  // The controller may emit commands out of global time order; the checker
  // must sort before validating.
  const TimingParams& t = dev().timing;
  TimingChecker checker(dev(), RefreshMode::Disabled);
  const Ps cas = t.tRCD;
  checker.on_command(rd(cas, 0, 1, cas + t.CL));  // emitted first,
  checker.on_command(act(0, 0, 1));               // issued earlier
  EXPECT_TRUE(checker.finish().empty());
}

}  // namespace
}  // namespace tbi::dram
