/// \file stats.hpp
/// Per-phase performance counters and derived metrics.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace tbi::dram {

/// Counters accumulated while the controller executes one access phase
/// (the interleaver's write phase or read phase).
struct PhaseStats {
  std::string label;

  std::uint64_t bursts = 0;
  /// Scheduler decisions taken while draining the phase (one per burst
  /// served; separate counter so the pick-cost metric stays honest if the
  /// scheduling loop ever changes shape).
  std::uint64_t picks = 0;
  /// Scheduler work: data_start evaluations the picks made, summed over
  /// picks (FR-FCFS: one per class head it compared). A count, not a time,
  /// so it is exact across hosts.
  std::uint64_t pick_candidates = 0;
  /// Host wall time spent inside Controller::run_phase for this phase, in
  /// nanoseconds (two clock reads per phase — not per pick).
  std::uint64_t host_ns = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t row_conflicts = 0;

  Ps start = 0;  ///< first data beat of the phase
  Ps end = 0;    ///< one past the last data beat
  Ps busy = 0;   ///< accumulated data-bus occupancy

  Ps elapsed() const { return end > start ? end - start : 0; }

  /// Data-bus utilization in [0,1] — the paper's "bandwidth utilization".
  double utilization() const {
    const Ps e = elapsed();
    return e > 0 ? static_cast<double>(busy) / static_cast<double>(e) : 0.0;
  }

  /// Achieved data bandwidth in Gbit/s given the burst payload size
  /// (bytes/ps * 8000 = Gbit/s).
  double bandwidth_gbps(unsigned burst_bytes) const {
    const Ps e = elapsed();
    if (e <= 0) return 0.0;
    return 8000.0 * static_cast<double>(bursts) * burst_bytes / static_cast<double>(e);
  }

  /// Host nanoseconds per scheduler pick — the perf-observability metric
  /// for the controller hot path (compared with a loose band, never
  /// exactly: it is host timing, not simulated time).
  double ns_per_pick() const {
    return picks ? static_cast<double>(host_ns) / static_cast<double>(picks) : 0.0;
  }

  /// Scheduler data_start evaluations per pick: deterministic, compared
  /// exactly by bench_compare.
  double candidates_per_pick() const {
    return picks ? static_cast<double>(pick_candidates) / static_cast<double>(picks)
                 : 0.0;
  }

  double row_hit_rate() const {
    const std::uint64_t total = row_hits + row_misses + row_conflicts;
    return total ? static_cast<double>(row_hits) / static_cast<double>(total) : 0.0;
  }
};

}  // namespace tbi::dram
