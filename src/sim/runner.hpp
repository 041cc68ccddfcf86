/// \file runner.hpp
/// One-stop simulation entry: run a triangular interleaver's write and
/// read phase through a mapping on a device and collect bandwidth and
/// energy results. Shared by tests, examples and every bench binary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "dram/controller.hpp"
#include "dram/energy.hpp"
#include "dram/standards.hpp"
#include "dram/stats.hpp"

namespace tbi::sim {

/// The paper's interleaver geometry: 12.5 M 3-bit symbols (§III). Shared
/// by the runner, the sweep engine and the experiment drivers.
inline constexpr std::uint64_t kPaperSymbols = 12'500'000;
inline constexpr unsigned kPaperSymbolBits = 3;

struct RunConfig {
  dram::DeviceConfig device;
  dram::ControllerConfig controller;
  std::string mapping_spec = "optimized";  ///< see mapping::make_mapping
  std::uint64_t side = 0;                  ///< burst triangle side (required)
  std::uint64_t max_bursts_per_phase = 0;  ///< 0 = simulate the full triangle
  bool check_protocol = false;  ///< attach the JEDEC checker; throw on violation

  /// Every field: run_interleaver depends on nothing else, so equal
  /// configs give equal runs (host timing aside).
  friend bool operator==(const RunConfig&, const RunConfig&) = default;
};

struct PhaseResult {
  dram::PhaseStats stats;
  dram::EnergyReport energy;
};

struct InterleaverRun {
  std::string device_name;
  std::string mapping_name;
  PhaseResult write;
  PhaseResult read;

  /// The paper's figure of merit: the *minimum* of both phases limits the
  /// interleaver throughput (§I).
  double min_utilization() const {
    return std::min(write.stats.utilization(), read.stats.utilization());
  }

  /// Achievable interleaver throughput in Gbit/s on \p burst_bytes bursts.
  double throughput_gbps(unsigned burst_bytes) const {
    return std::min(write.stats.bandwidth_gbps(burst_bytes),
                    read.stats.bandwidth_gbps(burst_bytes));
  }

  // Perf-counter aggregates over both phases, stamped into every bench
  // --json record (see src/perf/counters.hpp).
  std::uint64_t total_bursts() const {
    return write.stats.bursts + read.stats.bursts;
  }
  std::uint64_t total_activates() const {
    return write.stats.activates + read.stats.activates;
  }
  /// Host nanoseconds per scheduler pick, averaged over both phases.
  double sched_ns_per_pick() const {
    const std::uint64_t picks = write.stats.picks + read.stats.picks;
    return picks ? static_cast<double>(write.stats.host_ns + read.stats.host_ns) /
                       static_cast<double>(picks)
                 : 0.0;
  }
  /// Scheduler data_start evaluations per pick over both phases.
  double candidates_per_pick() const {
    const std::uint64_t picks = write.stats.picks + read.stats.picks;
    return picks ? static_cast<double>(write.stats.pick_candidates +
                                       read.stats.pick_candidates) /
                       static_cast<double>(picks)
                 : 0.0;
  }
};

/// Execute write phase then read phase on a fresh controller.
/// Throws std::runtime_error when check_protocol is set and the command
/// stream violates any JEDEC constraint.
InterleaverRun run_interleaver(const RunConfig& config);

/// Convenience: the paper's 12.5 M-element interleaver (3-bit symbols) on
/// the given device's burst size.
std::uint64_t paper_side_for(const dram::DeviceConfig& device);

/// Continuous (double-buffered) operation: block k+1 is written while
/// block k is read from a disjoint DRAM row region, 1:1 interleaved — the
/// deployment traffic shape, including read/write bus turnarounds. The
/// paper evaluates the two phases separately because min(write, read)
/// bounds this mixed rate; run_streaming measures the mixed rate itself.
/// Returns the single mixed-phase statistics.
PhaseResult run_streaming(const RunConfig& config);

}  // namespace tbi::sim
