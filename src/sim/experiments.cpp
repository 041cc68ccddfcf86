#include "sim/experiments.hpp"

#include "dram/standards.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

namespace tbi::sim {

std::vector<Table1Row> run_table1(const Table1Options& options) {
  // Device-major, mapping inner: run 2d is device d's row-major cell and
  // 2d + 1 its optimized one.
  const auto& devices = dram::standard_configs();
  std::vector<RunConfig> configs;
  for (const auto& device : devices) {
    for (const char* mapping : {"row-major", "optimized"}) {
      RunConfig rc;
      rc.device = device;
      rc.mapping_spec = mapping;
      rc.side = paper_side_for(device);
      rc.max_bursts_per_phase = options.max_bursts_per_phase;
      configs.push_back(std::move(rc));
    }
  }
  SweepOptions sweep;
  sweep.threads = options.threads;
  const auto runs = sweep_map(configs.size(), sweep,
                              [&](std::uint64_t index, std::uint64_t /*seed*/) {
    return run_interleaver(configs[index]);
  });

  std::vector<Table1Row> rows;
  rows.reserve(devices.size());
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto& rm = runs[2 * d];
    const auto& opt = runs[2 * d + 1];
    Table1Row row;
    row.config = devices[d].name;
    row.row_major_write = rm.write.stats.utilization();
    row.row_major_read = rm.read.stats.utilization();
    row.optimized_write = opt.write.stats.utilization();
    row.optimized_read = opt.read.stats.utilization();
    rows.push_back(row);
  }
  return rows;
}

}  // namespace tbi::sim
