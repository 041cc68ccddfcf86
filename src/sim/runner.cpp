#include "sim/runner.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>

#include "dram/checker.hpp"
#include "interleaver/streams.hpp"
#include "mapping/factory.hpp"
#include "mapping/offset.hpp"

namespace tbi::sim {

std::uint64_t paper_side_for(const dram::DeviceConfig& device) {
  return interleaver::burst_triangle_side(kPaperSymbols, kPaperSymbolBits,
                                          device.burst_bytes);
}

InterleaverRun run_interleaver(const RunConfig& config) {
  if (config.side == 0) {
    throw std::invalid_argument("run_interleaver: side must be set");
  }
  const auto mapping =
      mapping::make_mapping(config.mapping_spec, config.device, config.side);

  dram::Controller controller(config.device, config.controller);
  std::unique_ptr<dram::TimingChecker> checker;
  if (config.check_protocol) {
    checker = std::make_unique<dram::TimingChecker>(config.device,
                                                    controller.refresh_mode());
    controller.set_observer(checker.get());
  }

  InterleaverRun run;
  run.device_name = config.device.name;
  run.mapping_name = mapping->name();

  interleaver::WritePhaseStream write_stream(*mapping, config.max_bursts_per_phase);
  run.write.stats = controller.run_phase(write_stream, "write");
  run.write.energy = dram::compute_energy(config.device, run.write.stats,
                                          controller.refresh_mode());

  interleaver::ReadPhaseStream read_stream(*mapping, config.max_bursts_per_phase);
  run.read.stats = controller.run_phase(read_stream, "read");
  run.read.energy = dram::compute_energy(config.device, run.read.stats,
                                         controller.refresh_mode());

  if (checker) {
    const auto violations = checker->finish();
    if (!violations.empty()) {
      std::string msg = "protocol violations (" + run.device_name + ", " +
                        run.mapping_name + "):";
      for (const auto& v : violations) msg += "\n  " + v;
      throw std::runtime_error(msg);
    }
  }
  return run;
}

PhaseResult run_streaming(const RunConfig& config) {
  if (config.side == 0) {
    throw std::invalid_argument("run_streaming: side must be set");
  }
  // Two instances of the same mapping in disjoint row regions. The exact
  // row footprint of one block is found by walking the triangle once, a
  // row run at a time; even the paper-sized geometry probes in a few
  // milliseconds.
  auto probe_rows = [&](const mapping::IndexMapping& m) {
    std::array<dram::Address, 256> run;
    std::uint32_t max_row = 0;
    const std::uint64_t n = m.space().side;
    for (std::uint64_t i = 0; i < n; ++i) {
      for (std::uint64_t j = 0; j < n - i; j += run.size()) {
        const std::size_t count = std::min<std::uint64_t>(run.size(), n - i - j);
        m.map_run(i, j, true, count, run.data());
        for (std::size_t k = 0; k < count; ++k) max_row = std::max(max_row, run[k].row);
      }
    }
    return max_row + 1;
  };

  auto write_map =
      mapping::make_mapping(config.mapping_spec, config.device, config.side);
  const std::uint32_t region_rows = probe_rows(*write_map);
  auto read_map = std::make_unique<mapping::RowOffsetMapping>(
      mapping::make_mapping(config.mapping_spec, config.device, config.side),
      region_rows, config.device.rows_per_bank);

  dram::Controller controller(config.device, config.controller);
  std::unique_ptr<dram::TimingChecker> checker;
  if (config.check_protocol) {
    checker = std::make_unique<dram::TimingChecker>(config.device,
                                                    controller.refresh_mode());
    controller.set_observer(checker.get());
  }

  interleaver::StreamingPhaseStream stream(*write_map, *read_map,
                                           config.max_bursts_per_phase);
  PhaseResult result;
  result.stats = controller.run_phase(stream, "streaming");
  result.energy = dram::compute_energy(config.device, result.stats,
                                       controller.refresh_mode());

  if (checker) {
    const auto violations = checker->finish();
    if (!violations.empty()) {
      throw std::runtime_error("run_streaming: protocol violation: " +
                               violations.front());
    }
  }
  return result;
}

}  // namespace tbi::sim
