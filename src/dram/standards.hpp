/// \file standards.hpp
/// Device configurations for the five JEDEC standards (two speed grades
/// each) evaluated in the paper. Binaries name a device through
/// find_config().
///
/// Channel conventions (documented in DESIGN.md §5):
///  * one rank per channel;
///  * DDR3/DDR4/DDR5: 64 B per burst (64-bit channel x BL8, or 32-bit
///    DDR5 subchannel x BL16), 8 KiB pages -> 128 bursts per page;
///  * LPDDR4/LPDDR5: x16 channel, 32 B per burst (BL16); effective page
///    128 bursts (LPDDR4, ganged) / 64 bursts (LPDDR5);
///  * flat bank ids are bank-group-major (see dram/types.hpp).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "dram/timing.hpp"

namespace tbi::dram {

enum class Standard { DDR3, DDR4, DDR5, LPDDR4, LPDDR5 };

/// How the controller refreshes the device (JEDEC command availability
/// differs per standard; defaults follow the standard).
enum class RefreshMode {
  Disabled,  ///< legal while interleaver data lifetime < retention (paper §III)
  AllBank,   ///< REFab: whole rank blocked for tRFC_ab (DDR3/DDR4)
  PerBank,   ///< REFpb: one bank at a time (LPDDR4/LPDDR5)
  SameBank,  ///< REFsb: same bank index in every bank group (DDR5)
};

const char* to_string(RefreshMode m);

/// Rough per-command energy model (DRAMPower-style abstraction, values are
/// representative per-channel numbers, not vendor data).
struct EnergyParams {
  double act_pre_pj = 0;     ///< one ACT + eventual PRE pair
  double rd_pj = 0;          ///< one read burst
  double wr_pj = 0;          ///< one write burst
  double ref_ab_pj = 0;      ///< one all-bank refresh (group refresh scaled)
  double background_mw = 0;  ///< standby power while the phase runs

  friend bool operator==(const EnergyParams&, const EnergyParams&) = default;
};

/// Complete description of one DRAM channel configuration.
struct DeviceConfig {
  std::string name;
  Standard standard = Standard::DDR4;
  unsigned data_rate_mts = 0;     ///< transfers per second (informational)
  unsigned banks = 0;             ///< total banks in the rank
  unsigned bank_groups = 1;       ///< 1 => standard without bank groups
  unsigned columns_per_page = 0;  ///< page size counted in bursts
  unsigned rows_per_bank = 0;
  unsigned burst_bytes = 0;       ///< user data moved per burst
  Ps burst_time = 0;              ///< data-bus occupancy per burst
  TimingParams timing;
  EnergyParams energy;
  RefreshMode default_refresh = RefreshMode::AllBank;

  /// Every field, so two configurations that share a name but differ in
  /// timing or energy compare unequal.
  friend bool operator==(const DeviceConfig&, const DeviceConfig&) = default;

  unsigned banks_per_group() const { return banks / bank_groups; }
  std::uint64_t page_bytes() const {
    return std::uint64_t{columns_per_page} * burst_bytes;
  }
  std::uint64_t capacity_bytes() const {
    return page_bytes() * rows_per_bank * banks;
  }
  /// Theoretical peak data bandwidth in Gbit/s (bytes/ps * 8000).
  double peak_bandwidth_gbps() const {
    return 8000.0 * burst_bytes / static_cast<double>(burst_time);
  }

  /// Sanity-checks geometry and timing; throws std::invalid_argument.
  void validate() const;
};

/// The ten configurations of the paper's Table I, in table order.
const std::vector<DeviceConfig>& standard_configs();

/// Look up one of the ten configurations by name (e.g. "DDR4-3200");
/// returns nullptr when unknown.
const DeviceConfig* find_config(std::string_view name);

}  // namespace tbi::dram
