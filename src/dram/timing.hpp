/// \file timing.hpp
/// JEDEC inter-command timing constraints in integer picoseconds.
///
/// The subset modeled here is exactly the set that bounds *sustained*
/// bandwidth of page-hit/page-miss streams: row timings (tRCD/tRP/tRAS/tRC),
/// activation rate limits (tRRD_S/L, tFAW), CAS-to-CAS spacing with bank
/// groups (tCCD_S/L), write recovery and turnaround (tWR, tWTR, tRTP), and
/// refresh (tREFI, tRFC variants). PHY/training/ODT effects shift absolute
/// latency, not sustained bandwidth, and are out of scope (DESIGN.md §5).
#pragma once

#include <string>

#include "common/types.hpp"

namespace tbi::dram {

struct TimingParams {
  Ps tCK = 0;      ///< command clock period (informational; model is ps-based)
  Ps CL = 0;       ///< read command to first data
  Ps CWL = 0;      ///< write command to first data
  Ps tRCD = 0;     ///< ACT to RD/WR, same bank
  Ps tRP = 0;      ///< PRE to ACT, same bank
  Ps tRAS = 0;     ///< ACT to PRE, same bank
  Ps tRC = 0;      ///< ACT to ACT, same bank
  Ps tRRD_S = 0;   ///< ACT to ACT, different bank group
  Ps tRRD_L = 0;   ///< ACT to ACT, same bank group
  Ps tFAW = 0;     ///< four-activate window (rank)
  Ps tCCD_S = 0;   ///< CAS to CAS, different bank group
  Ps tCCD_L = 0;   ///< CAS to CAS, same bank group
  Ps tRTP = 0;     ///< RD to PRE, same bank
  Ps tWR = 0;      ///< end of write data to PRE, same bank
  Ps tWTR = 0;     ///< end of write data to RD command (rank)
  Ps tRTW_bubble = 0;  ///< extra data-bus gap when turning RD -> WR
  Ps tREFI = 0;    ///< average refresh interval (all-bank equivalent)
  Ps tRFC_ab = 0;  ///< all-bank refresh cycle time
  Ps tRFC_grp = 0; ///< per-bank / same-bank refresh cycle time

  friend bool operator==(const TimingParams&, const TimingParams&) = default;

  /// Throws std::invalid_argument when a parameter combination is
  /// physically inconsistent (e.g. tRC < tRAS + tRP).
  void validate() const;
};

}  // namespace tbi::dram
