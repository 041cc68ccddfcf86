/// \file fault.hpp
/// Deterministic preemption for the checkpointed sweep.
///
/// A resume path that only runs when a machine is preempted is a resume
/// path that has never run. `TBI_FAULT_INJECT=abort-after=K` (or a parsed
/// spec in tests) stops a sweep after K committed cells exactly as
/// SIGINT would: the manifest is flushed and the sweep returns through
/// its interrupted path, so `--resume` can be exercised on demand.
#pragma once

#include <cstdint>
#include <string>

namespace tbi::sim {

struct FaultSpec {
  /// Stop after this many cells committed by this run (0 = never).
  std::uint64_t abort_after = 0;

  /// Parse `abort-after=K` (K >= 1; an empty spec injects nothing).
  /// Throws std::invalid_argument on anything else: an unreadable fault
  /// spec must fail loudly, not silently test nothing.
  static FaultSpec parse(const std::string& spec);

  /// Parse `TBI_FAULT_INJECT` (empty spec when unset).
  static FaultSpec from_env();
};

}  // namespace tbi::sim
