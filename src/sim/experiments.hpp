/// \file experiments.hpp
/// Table I as utilization rows (DESIGN.md §4), for callers that need only
/// the 20 cells' utilizations: perfbench's table1 workload and the tests.
/// bench_table1 runs the same cells in its own list of distinct runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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

}  // namespace tbi::sim
