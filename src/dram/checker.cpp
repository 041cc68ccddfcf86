#include "dram/checker.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>

namespace tbi::dram {

namespace {

constexpr Ps kNegInf = std::numeric_limits<Ps>::min() / 4;

struct BankShadow {
  bool open = false;
  std::uint32_t row = 0;
  Ps last_act = kNegInf;
  Ps last_pre = kNegInf;
  Ps last_rd_cas = kNegInf;
  Ps last_wr_data_end = kNegInf;
  Ps ref_block_until = kNegInf;
};

std::string fmt(const char* what, const Command& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: %s @%lld ps bank=%u row=%u col=%u",
                what, to_string(c.kind), static_cast<long long>(c.issue),
                c.bank, c.row, c.column);
  return buf;
}

}  // namespace

std::vector<std::string> TimingChecker::finish() {
  std::vector<std::string> violations;
  auto flag = [&](const char* what, const Command& c) {
    if (violations.size() < 64) violations.push_back(fmt(what, c));
  };

  std::stable_sort(commands_.begin(), commands_.end(),
                   [](const Command& a, const Command& b) { return a.issue < b.issue; });

  const TimingParams& t = device_.timing;
  std::vector<BankShadow> banks(device_.banks);
  std::vector<Ps> last_act_bg(device_.bank_groups, kNegInf);
  std::vector<Ps> last_cas_bg(device_.bank_groups, kNegInf);
  Ps last_act_any = kNegInf;
  Ps last_cas_any = kNegInf;
  Ps last_wr_data_end = kNegInf;
  Ps last_rd_data_end = kNegInf;
  bool last_burst_was_read = false;
  Ps bus_busy_until = kNegInf;
  std::deque<Ps> faw;

  auto group_of = [&](std::uint32_t bank) { return bank % device_.bank_groups; };

  for (const Command& c : commands_) {
    switch (c.kind) {
      case CommandKind::Act: {
        BankShadow& b = banks[c.bank];
        if (b.open) flag("ACT to open bank", c);
        if (c.issue < b.last_pre + t.tRP) flag("tRP violated", c);
        if (c.issue < b.last_act + t.tRC) flag("tRC violated", c);
        if (c.issue < b.ref_block_until) flag("ACT during refresh", c);
        if (c.issue < last_act_any + t.tRRD_S) flag("tRRD_S violated", c);
        if (c.issue < last_act_bg[group_of(c.bank)] + t.tRRD_L) flag("tRRD_L violated", c);
        if (faw.size() == 4 && c.issue < faw.front() + t.tFAW) flag("tFAW violated", c);
        b.open = true;
        b.row = c.row;
        b.last_act = c.issue;
        last_act_any = c.issue;
        last_act_bg[group_of(c.bank)] = c.issue;
        faw.push_back(c.issue);
        if (faw.size() > 4) faw.pop_front();
        break;
      }
      case CommandKind::Pre: {
        BankShadow& b = banks[c.bank];
        if (!b.open) flag("PRE to closed bank", c);
        if (c.issue < b.last_act + t.tRAS) flag("tRAS violated", c);
        if (c.issue < b.last_rd_cas + t.tRTP) flag("tRTP violated", c);
        if (c.issue < b.last_wr_data_end + t.tWR) flag("tWR violated", c);
        b.open = false;
        b.last_pre = c.issue;
        break;
      }
      case CommandKind::Rd:
      case CommandKind::Wr: {
        BankShadow& b = banks[c.bank];
        const bool is_wr = c.kind == CommandKind::Wr;
        if (!b.open) flag("CAS to closed bank", c);
        if (b.open && b.row != c.row) flag("CAS to wrong row", c);
        if (c.issue < b.last_act + t.tRCD) flag("tRCD violated", c);
        if (c.issue < last_cas_any + t.tCCD_S) flag("tCCD_S violated", c);
        if (c.issue < last_cas_bg[group_of(c.bank)] + t.tCCD_L) flag("tCCD_L violated", c);
        if (!is_wr && c.issue < last_wr_data_end + t.tWTR) flag("tWTR violated", c);
        // Each CAS follows the previous one by >= tCCD_S, so issue order is
        // bus order and the last CAS seen owns the preceding data burst.
        if (is_wr && last_burst_was_read &&
            c.data_start < last_rd_data_end + t.tRTW_bubble) {
          flag("tRTW bubble violated", c);
        }
        if (c.data_start < bus_busy_until) flag("data bus overlap", c);
        const Ps latency = is_wr ? t.CWL : t.CL;
        if (c.data_start < c.issue + latency) flag("CAS latency violated", c);
        if (c.data_end != c.data_start + device_.burst_time) flag("bad burst length", c);
        last_cas_any = c.issue;
        last_cas_bg[group_of(c.bank)] = c.issue;
        bus_busy_until = c.data_end;
        last_burst_was_read = !is_wr;
        if (is_wr) {
          last_wr_data_end = c.data_end;
          b.last_wr_data_end = c.data_end;
        } else {
          last_rd_data_end = c.data_end;
          b.last_rd_cas = c.issue;
        }
        break;
      }
      case CommandKind::RefAb: {
        for (std::uint32_t i = 0; i < device_.banks; ++i) {
          BankShadow& b = banks[i];
          if (b.open) flag("REFab with open bank", c);
          if (c.issue < b.last_pre + t.tRP) flag("REFab before tRP", c);
          b.ref_block_until = c.issue + t.tRFC_ab;
        }
        break;
      }
      case CommandKind::RefGrp: {
        for (std::uint32_t i = 0; i < device_.banks; ++i) {
          const bool member = (refresh_mode_ == RefreshMode::PerBank)
                                  ? (i == c.bank)
                                  : (i / device_.bank_groups == c.bank);
          if (!member) continue;
          BankShadow& b = banks[i];
          if (b.open) flag("REFgrp with open bank", c);
          if (c.issue < b.last_pre + t.tRP) flag("REFgrp before tRP", c);
          b.ref_block_until = c.issue + t.tRFC_grp;
        }
        break;
      }
    }
  }
  return violations;
}

}  // namespace tbi::dram
