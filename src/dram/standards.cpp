#include "dram/standards.hpp"

#include <stdexcept>

#include "common/bits.hpp"

namespace tbi::dram {

const char* to_string(RefreshMode m) {
  switch (m) {
    case RefreshMode::Disabled: return "disabled";
    case RefreshMode::AllBank: return "all-bank";
    case RefreshMode::PerBank: return "per-bank";
    case RefreshMode::SameBank: return "same-bank";
  }
  return "?";
}

void DeviceConfig::validate() const {
  auto require = [&](bool cond, const char* what) {
    if (!cond) throw std::invalid_argument("DeviceConfig " + name + ": " + what);
  };
  require(banks > 0 && is_pow2(banks), "banks must be a power of two");
  require(bank_groups > 0 && banks % bank_groups == 0,
          "bank_groups must divide banks");
  require(is_pow2(bank_groups), "bank_groups must be a power of two");
  require(columns_per_page > 0 && is_pow2(columns_per_page),
          "columns_per_page must be a power of two");
  require(rows_per_bank > 0, "rows_per_bank must be positive");
  require(burst_bytes > 0, "burst_bytes must be positive");
  require(burst_time > 0, "burst_time must be positive");
  timing.validate();
  require(timing.tCCD_S >= burst_time || timing.tCCD_S > 0,
          "tCCD_S must be meaningful");
}

namespace {

// Parameter sources: public JEDEC standards / representative vendor
// datasheets (DESIGN.md §5 documents the approximations). All times in ps.

DeviceConfig ddr3_800() {
  DeviceConfig c;
  c.name = "DDR3-800";
  c.standard = Standard::DDR3;
  c.data_rate_mts = 800;
  c.banks = 8;
  c.bank_groups = 1;
  c.columns_per_page = 128;  // 8 KiB page / 64 B burst
  c.rows_per_bank = 65536;
  c.burst_bytes = 64;
  c.burst_time = 10000;  // BL8 @ 800 MT/s
  c.timing = TimingParams{
      .tCK = 2500, .CL = 12500, .CWL = 12500,
      .tRCD = 12500, .tRP = 12500, .tRAS = 37500, .tRC = 50000,
      .tRRD_S = 10000, .tRRD_L = 10000, .tFAW = 40000,
      .tCCD_S = 10000, .tCCD_L = 10000,
      .tRTP = 10000, .tWR = 15000, .tWTR = 10000, .tRTW_bubble = 5000,
      .tREFI = 7800000, .tRFC_ab = 260000, .tRFC_grp = 260000};
  c.energy = EnergyParams{2200, 1400, 1500, 28000, 120};
  c.default_refresh = RefreshMode::AllBank;
  return c;
}

DeviceConfig ddr3_1600() {
  DeviceConfig c = ddr3_800();
  c.name = "DDR3-1600";
  c.data_rate_mts = 1600;
  c.burst_time = 5000;
  c.timing = TimingParams{
      .tCK = 1250, .CL = 13750, .CWL = 10000,
      .tRCD = 13750, .tRP = 13750, .tRAS = 35000, .tRC = 48750,
      .tRRD_S = 6250, .tRRD_L = 6250, .tFAW = 30000,
      .tCCD_S = 5000, .tCCD_L = 5000,
      .tRTP = 7500, .tWR = 15000, .tWTR = 7500, .tRTW_bubble = 2500,
      .tREFI = 7800000, .tRFC_ab = 260000, .tRFC_grp = 260000};
  c.energy = EnergyParams{2000, 1300, 1400, 26000, 130};
  return c;
}

DeviceConfig ddr4_1600() {
  DeviceConfig c;
  c.name = "DDR4-1600";
  c.standard = Standard::DDR4;
  c.data_rate_mts = 1600;
  c.banks = 16;
  c.bank_groups = 4;
  c.columns_per_page = 128;  // 8 KiB DIMM page (x8 devices) / 64 B burst
  c.rows_per_bank = 65536;
  c.burst_bytes = 64;
  c.burst_time = 5000;
  c.timing = TimingParams{
      .tCK = 1250, .CL = 13750, .CWL = 11250,
      .tRCD = 13750, .tRP = 13750, .tRAS = 35000, .tRC = 48750,
      .tRRD_S = 6250, .tRRD_L = 7500, .tFAW = 25000,
      .tCCD_S = 5000, .tCCD_L = 6250,
      .tRTP = 7500, .tWR = 15000, .tWTR = 7500, .tRTW_bubble = 2500,
      .tREFI = 7800000, .tRFC_ab = 260000, .tRFC_grp = 260000};
  c.energy = EnergyParams{1800, 1100, 1200, 25000, 100};
  c.default_refresh = RefreshMode::AllBank;
  return c;
}

DeviceConfig ddr4_3200() {
  DeviceConfig c = ddr4_1600();
  c.name = "DDR4-3200";
  c.data_rate_mts = 3200;
  c.burst_time = 2500;
  c.timing = TimingParams{
      .tCK = 625, .CL = 13750, .CWL = 10000,
      .tRCD = 13750, .tRP = 13750, .tRAS = 32000, .tRC = 45750,
      .tRRD_S = 2500, .tRRD_L = 4875, .tFAW = 20000,
      .tCCD_S = 2500, .tCCD_L = 5000,
      .tRTP = 7500, .tWR = 15000, .tWTR = 7500, .tRTW_bubble = 1250,
      .tREFI = 7800000, .tRFC_ab = 260000, .tRFC_grp = 260000};
  c.energy = EnergyParams{1700, 1000, 1100, 24000, 110};
  return c;
}

DeviceConfig ddr5_3200() {
  DeviceConfig c;
  c.name = "DDR5-3200";
  c.standard = Standard::DDR5;
  c.data_rate_mts = 3200;
  c.banks = 32;
  c.bank_groups = 8;
  c.columns_per_page = 128;
  c.rows_per_bank = 65536;
  c.burst_bytes = 64;
  c.burst_time = 5000;  // BL16 on a 32-bit subchannel
  c.timing = TimingParams{
      .tCK = 625, .CL = 13750, .CWL = 11875,
      .tRCD = 13750, .tRP = 13750, .tRAS = 32000, .tRC = 45750,
      .tRRD_S = 5000, .tRRD_L = 5000, .tFAW = 20000,
      .tCCD_S = 5000, .tCCD_L = 5000,
      .tRTP = 7500, .tWR = 30000, .tWTR = 10000, .tRTW_bubble = 1250,
      .tREFI = 3900000, .tRFC_ab = 295000, .tRFC_grp = 160000};
  c.energy = EnergyParams{1500, 900, 1000, 22000, 90};
  c.default_refresh = RefreshMode::SameBank;
  return c;
}

DeviceConfig ddr5_6400() {
  DeviceConfig c = ddr5_3200();
  c.name = "DDR5-6400";
  c.data_rate_mts = 6400;
  c.burst_time = 2500;
  c.timing = TimingParams{
      .tCK = 312, .CL = 13750, .CWL = 12500,
      .tRCD = 13750, .tRP = 13750, .tRAS = 32000, .tRC = 45750,
      .tRRD_S = 2500, .tRRD_L = 5000, .tFAW = 11250,
      .tCCD_S = 2500, .tCCD_L = 5000,
      .tRTP = 7500, .tWR = 30000, .tWTR = 10000, .tRTW_bubble = 625,
      .tREFI = 3900000, .tRFC_ab = 295000, .tRFC_grp = 160000};
  c.energy = EnergyParams{1400, 850, 950, 21000, 95};
  return c;
}

DeviceConfig lpddr4_2133() {
  DeviceConfig c;
  c.name = "LPDDR4-2133";
  c.standard = Standard::LPDDR4;
  c.data_rate_mts = 2133;
  c.banks = 8;
  c.bank_groups = 1;
  c.columns_per_page = 128;  // 4 KiB effective page / 32 B burst
  c.rows_per_bank = 65536;
  c.burst_bytes = 32;  // x16 channel, BL16
  c.burst_time = 7502;
  c.timing = TimingParams{
      .tCK = 938, .CL = 17000, .CWL = 8000,
      .tRCD = 18000, .tRP = 18000, .tRAS = 42000, .tRC = 60000,
      .tRRD_S = 10000, .tRRD_L = 10000, .tFAW = 40000,
      .tCCD_S = 7502, .tCCD_L = 7502,
      .tRTP = 7500, .tWR = 18000, .tWTR = 10000, .tRTW_bubble = 3750,
      .tREFI = 3904000, .tRFC_ab = 280000, .tRFC_grp = 140000};
  c.energy = EnergyParams{900, 500, 550, 15000, 40};
  c.default_refresh = RefreshMode::PerBank;
  return c;
}

DeviceConfig lpddr4_4266() {
  DeviceConfig c = lpddr4_2133();
  c.name = "LPDDR4-4266";
  c.data_rate_mts = 4266;
  c.burst_time = 3751;
  c.timing.tCK = 469;
  c.timing.tCCD_S = 3751;
  c.timing.tCCD_L = 3751;
  c.timing.tRTW_bubble = 1875;
  c.energy = EnergyParams{850, 470, 520, 14000, 45};
  return c;
}

DeviceConfig lpddr5_4267() {
  DeviceConfig c;
  c.name = "LPDDR5-4267";
  c.standard = Standard::LPDDR5;
  c.data_rate_mts = 4267;
  c.banks = 16;
  c.bank_groups = 4;  // bank-group mode
  c.columns_per_page = 64;  // 2 KiB page / 32 B burst
  c.rows_per_bank = 65536;
  c.burst_bytes = 32;
  c.burst_time = 3750;
  c.timing = TimingParams{
      .tCK = 1875, .CL = 17000, .CWL = 9000,
      .tRCD = 15000, .tRP = 15000, .tRAS = 42000, .tRC = 57000,
      .tRRD_S = 7500, .tRRD_L = 7500, .tFAW = 30000,
      .tCCD_S = 3750, .tCCD_L = 7500,
      .tRTP = 7500, .tWR = 10000, .tWTR = 10000, .tRTW_bubble = 1875,
      .tREFI = 3904000, .tRFC_ab = 280000, .tRFC_grp = 140000};
  c.energy = EnergyParams{700, 380, 420, 12000, 35};
  c.default_refresh = RefreshMode::PerBank;
  return c;
}

DeviceConfig lpddr5_8533() {
  DeviceConfig c = lpddr5_4267();
  c.name = "LPDDR5-8533";
  c.data_rate_mts = 8533;
  c.burst_time = 1875;
  c.timing.tCK = 938;
  c.timing.tRRD_S = 3750;
  c.timing.tRRD_L = 3750;
  c.timing.tFAW = 15000;
  c.timing.tCCD_S = 1875;
  c.timing.tCCD_L = 3750;
  c.timing.tRTW_bubble = 938;
  c.timing.tRCD = 15000;
  c.timing.tRP = 15000;
  c.timing.tRC = 57000;
  c.timing.tWR = 10000;
  c.energy = EnergyParams{650, 360, 400, 11500, 40};
  return c;
}

}  // namespace

const std::vector<DeviceConfig>& standard_configs() {
  static const std::vector<DeviceConfig> configs = [] {
    std::vector<DeviceConfig> v{
        ddr3_800(),    ddr3_1600(),  ddr4_1600(),   ddr4_3200(),
        ddr5_3200(),   ddr5_6400(),  lpddr4_2133(), lpddr4_4266(),
        lpddr5_4267(), lpddr5_8533()};
    for (auto& c : v) c.validate();
    return v;
  }();
  return configs;
}

const DeviceConfig* find_config(std::string_view name) {
  for (const auto& c : standard_configs()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace tbi::dram
