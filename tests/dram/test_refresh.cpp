#include <gtest/gtest.h>

#include "dram/checker.hpp"
#include "dram/controller.hpp"
#include "dram/standards.hpp"

namespace tbi::dram {
namespace {

std::vector<Request> rotating_traffic(const DeviceConfig& dev, unsigned count) {
  std::vector<Request> v;
  for (unsigned i = 0; i < count; ++i) {
    v.push_back(Request{Address{i % dev.banks, 0,
                                (i / dev.banks) % dev.columns_per_page},
                        false, 0});
  }
  return v;
}

PhaseStats run_mode(const DeviceConfig& dev, RefreshMode mode, unsigned count,
                    TimingChecker* checker = nullptr) {
  ControllerConfig cfg;
  cfg.refresh_mode = mode;
  Controller ctl(dev, cfg);
  if (checker) ctl.set_observer(checker);
  VectorStream s(rotating_traffic(dev, count));
  return ctl.run_phase(s, "refresh-test");
}

TEST(Refresh, DisabledIssuesNoRefreshes) {
  const auto stats = run_mode(*find_config("DDR4-3200"), RefreshMode::Disabled, 20000);
  EXPECT_EQ(stats.refreshes, 0u);
}

TEST(Refresh, AllBankCadenceMatchesTrefi) {
  const DeviceConfig& dev = *find_config("DDR4-3200");
  const auto stats = run_mode(dev, RefreshMode::AllBank, 200000);
  const double expected =
      static_cast<double>(stats.end) / static_cast<double>(dev.timing.tREFI);
  EXPECT_NEAR(static_cast<double>(stats.refreshes), expected, expected * 0.1 + 2);
}

TEST(Refresh, PerBankCadenceIsBanksTimesFaster) {
  const DeviceConfig& dev = *find_config("LPDDR4-4266");
  const auto stats = run_mode(dev, RefreshMode::PerBank, 200000);
  const double expected = static_cast<double>(stats.end) * dev.banks /
                          static_cast<double>(dev.timing.tREFI);
  EXPECT_NEAR(static_cast<double>(stats.refreshes), expected, expected * 0.1 + 2);
}

TEST(Refresh, AllBankCostsMoreBandwidthThanDisabled) {
  const DeviceConfig& dev = *find_config("DDR4-3200");
  const auto with = run_mode(dev, RefreshMode::AllBank, 100000);
  const auto without = run_mode(dev, RefreshMode::Disabled, 100000);
  EXPECT_LT(with.utilization(), without.utilization());
  // All-bank refresh overhead is roughly tRFC/tREFI.
  const double overhead = static_cast<double>(dev.timing.tRFC_ab) /
                          static_cast<double>(dev.timing.tREFI);
  EXPECT_NEAR(without.utilization() - with.utilization(), overhead, 0.03);
}

TEST(Refresh, PerBankIsCheaperThanAllBankUnderLoad) {
  // Per-bank refresh blocks one bank while the other banks keep serving:
  // with bank-parallel traffic it must beat all-bank refresh.
  const DeviceConfig& dev = *find_config("LPDDR4-4266");
  const auto ab = run_mode(dev, RefreshMode::AllBank, 100000);
  const auto pb = run_mode(dev, RefreshMode::PerBank, 100000);
  EXPECT_GT(pb.utilization(), ab.utilization() - 0.005);
}

TEST(Refresh, ModesAreProtocolClean) {
  for (const char* name : {"DDR4-3200", "DDR5-6400", "LPDDR4-4266", "LPDDR5-8533"}) {
    const DeviceConfig& dev = *find_config(name);
    for (RefreshMode mode : {RefreshMode::AllBank, RefreshMode::PerBank,
                             RefreshMode::SameBank, RefreshMode::Disabled}) {
      TimingChecker checker(dev, mode);
      try {
        run_mode(dev, mode, 50000, &checker);
      } catch (const std::invalid_argument&) {
        continue;  // mode unsustainable on this device (e.g. DDR5 per-bank)
      }
      const auto v = checker.finish();
      EXPECT_TRUE(v.empty()) << name << "/" << to_string(mode) << ": "
                             << (v.empty() ? "" : v.front());
    }
  }
}

TEST(Refresh, UnsustainableCadenceRejected) {
  // DDR5 per-bank refresh would need a REF every tREFI/32 = 122 ns with a
  // 160 ns cycle time — the controller must refuse instead of deadlocking.
  ControllerConfig cfg;
  cfg.refresh_mode = RefreshMode::PerBank;
  EXPECT_THROW(Controller(*find_config("DDR5-6400"), cfg), std::invalid_argument);
  EXPECT_THROW(Controller(*find_config("DDR5-3200"), cfg), std::invalid_argument);
  // The standard's own mode is fine.
  cfg.refresh_mode = RefreshMode::SameBank;
  EXPECT_NO_THROW(Controller(*find_config("DDR5-6400"), cfg));
}

TEST(Refresh, SameBankGroupsCoverAllBanksInRotation) {
  // DDR5 same-bank refresh rotates banks_per_group groups; after a long
  // run every bank must have been refreshed (indirectly observable via
  // protocol cleanliness with open-page traffic on all banks).
  const DeviceConfig& dev = *find_config("DDR5-3200");
  TimingChecker checker(dev, RefreshMode::SameBank);
  const auto stats = run_mode(dev, RefreshMode::SameBank, 300000, &checker);
  EXPECT_TRUE(checker.finish().empty());
  const double expected = static_cast<double>(stats.end) *
                          dev.banks_per_group() /
                          static_cast<double>(dev.timing.tREFI);
  EXPECT_NEAR(static_cast<double>(stats.refreshes), expected, expected * 0.1 + 2);
}

}  // namespace
}  // namespace tbi::dram
