/// \file experiments.hpp
/// Reusable experiment drivers for the paper's evaluation artifacts
/// (DESIGN.md §4). Bench binaries format the returned records; tests
/// assert on their shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dram/standards.hpp"
#include "sim/runner.hpp"

namespace tbi::sim {

/// One row of Table I: a device configuration with both mappings.
struct Table1Row {
  std::string config;
  double row_major_write = 0;
  double row_major_read = 0;
  double optimized_write = 0;
  double optimized_read = 0;
};

struct Table1Options {
  /// 0 = full phases; otherwise truncate each phase (faster smoke runs).
  std::uint64_t max_bursts_per_phase = 0;
  /// Worker threads for the sweep (0 = all hardware threads).
  unsigned threads = 0;
};

/// E1 / E3: run row-major and optimized mappings over all ten devices,
/// each on the paper's 12.5 M-symbol triangle, and report write/read
/// bandwidth utilizations.
std::vector<Table1Row> run_table1(const Table1Options& options);

/// E5: ablation of the three optimizations on one device.
struct AblationRow {
  std::string variant;
  double write = 0;
  double read = 0;
  /// Host scheduling cost (perf counter, both phases pooled).
  double ns_per_pick = 0;
  double min() const { return write < read ? write : read; }
};

std::vector<AblationRow> run_ablation(const dram::DeviceConfig& device,
                                      std::uint64_t total_symbols,
                                      std::uint64_t max_bursts_per_phase = 0,
                                      unsigned threads = 0);

/// E4: interleaver dimension sweep on one device, both mappings.
struct DimensionRow {
  std::uint64_t total_symbols = 0;
  std::uint64_t side_bursts = 0;
  double row_major_min = 0;
  double optimized_min = 0;
  /// Host scheduling cost (perf counter, both phases pooled), per mapping.
  double row_major_ns_per_pick = 0;
  double optimized_ns_per_pick = 0;
};

std::vector<DimensionRow> run_dimension_sweep(const dram::DeviceConfig& device,
                                              const std::vector<std::uint64_t>& symbol_counts,
                                              unsigned threads = 0);

}  // namespace tbi::sim
