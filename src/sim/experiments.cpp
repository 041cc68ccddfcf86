#include "sim/experiments.hpp"

#include "interleaver/streams.hpp"
#include "sim/sweep.hpp"

namespace tbi::sim {

std::vector<Table1Row> run_table1(const Table1Options& options) {
  const SweepGrid grid = SweepGrid::paper_bandwidth_grid();

  BandwidthSweepOptions sweep;
  sweep.sweep.threads = options.threads;
  sweep.max_bursts_per_phase = options.max_bursts_per_phase;

  const auto records = run_bandwidth_sweep(grid, sweep);

  // Records are device-major, mapping inner (grid expansion order): fold
  // each device's row-major/optimized pair into one table row.
  std::vector<Table1Row> rows;
  rows.reserve(grid.devices.size());
  for (std::size_t d = 0; d < grid.devices.size(); ++d) {
    const auto& rm = records[2 * d].run;
    const auto& opt = records[2 * d + 1].run;
    Table1Row row;
    row.config = grid.devices[d];
    row.row_major_write = rm.write.stats.utilization();
    row.row_major_read = rm.read.stats.utilization();
    row.optimized_write = opt.write.stats.utilization();
    row.optimized_read = opt.read.stats.utilization();
    rows.push_back(row);
  }
  return rows;
}

std::vector<AblationRow> run_ablation(const dram::DeviceConfig& device,
                                      std::uint64_t total_symbols,
                                      std::uint64_t max_bursts_per_phase,
                                      unsigned threads) {
  static const char* kVariants[] = {
      "optimized/none", "optimized/diag", "optimized/tile",
      "optimized/diag+tile", "optimized"};

  SweepOptions sweep;
  sweep.threads = threads;
  return sweep_map(std::size(kVariants), sweep,
                   [&](std::uint64_t index, std::uint64_t /*seed*/) {
    RunConfig rc;
    rc.device = device;
    rc.mapping_spec = kVariants[index];
    rc.side = interleaver::burst_triangle_side(total_symbols, kPaperSymbolBits,
                                               device.burst_bytes);
    rc.max_bursts_per_phase = max_bursts_per_phase;
    const InterleaverRun run = run_interleaver(rc);
    return AblationRow{run.mapping_name, run.write.stats.utilization(),
                       run.read.stats.utilization(), run.sched_ns_per_pick()};
  });
}

std::vector<DimensionRow> run_dimension_sweep(
    const dram::DeviceConfig& device, const std::vector<std::uint64_t>& symbol_counts,
    unsigned threads) {
  SweepOptions sweep;
  sweep.threads = threads;
  return sweep_map(symbol_counts.size(), sweep,
                   [&](std::uint64_t index, std::uint64_t /*seed*/) {
    const std::uint64_t symbols = symbol_counts[index];
    DimensionRow row;
    row.total_symbols = symbols;
    row.side_bursts = interleaver::burst_triangle_side(symbols, kPaperSymbolBits,
                                                       device.burst_bytes);
    RunConfig rc;
    rc.device = device;
    rc.side = row.side_bursts;

    rc.mapping_spec = "row-major";
    const InterleaverRun rm = run_interleaver(rc);
    row.row_major_min = rm.min_utilization();
    row.row_major_ns_per_pick = rm.sched_ns_per_pick();
    rc.mapping_spec = "optimized";
    const InterleaverRun opt = run_interleaver(rc);
    row.optimized_min = opt.min_utilization();
    row.optimized_ns_per_pick = opt.sched_ns_per_pick();
    return row;
  });
}

}  // namespace tbi::sim
