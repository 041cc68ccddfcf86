/// \file inspect_phases.cpp
/// Diagnostic deep-dive into one (device, mapping) pair: per-phase counter
/// dump plus either a JEDEC protocol check or a DRAM command trace
/// written to a file (the controller holds one observer).
///
/// Usage: inspect_phases [--device NAME] [--mapping SPEC] [--queue-depth Q]
///                       [--no-refresh] [--fcfs] [--check] [--trace FILE]
///                       [--max-bursts M]
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "dram/checker.hpp"
#include "dram/standards.hpp"
#include "dram/trace.hpp"
#include "interleaver/streams.hpp"
#include "mapping/factory.hpp"
#include "sim/runner.hpp"

namespace {

void print_phase(const tbi::dram::PhaseStats& s) {
  std::printf(
      "%-5s util=%6.2f%% bursts=%llu hits=%llu miss=%llu conf=%llu acts=%llu "
      "pre=%llu ref=%llu hit-rate=%.1f%% elapsed=%.1fus\n",
      s.label.c_str(), 100.0 * s.utilization(),
      static_cast<unsigned long long>(s.bursts),
      static_cast<unsigned long long>(s.row_hits),
      static_cast<unsigned long long>(s.row_misses),
      static_cast<unsigned long long>(s.row_conflicts),
      static_cast<unsigned long long>(s.activates),
      static_cast<unsigned long long>(s.precharges),
      static_cast<unsigned long long>(s.refreshes), 100.0 * s.row_hit_rate(),
      static_cast<double>(s.elapsed()) / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  tbi::CliParser cli("inspect_phases", "counter/trace deep-dive for one run");
  cli.add_option("device", "name", "device (default DDR4-3200)");
  cli.add_option("mapping", "spec", "mapping spec (default optimized)");
  cli.add_option("queue-depth", "n", "controller queue depth (default 64)");
  cli.add_option("no-refresh", "", "disable refresh");
  cli.add_option("fcfs", "", "use FCFS instead of FR-FCFS");
  cli.add_option("check", "", "validate against the JEDEC protocol checker");
  cli.add_option("trace", "file", "write the DRAM command trace to a file");
  cli.add_option("max-bursts", "count", "truncate each phase");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }

  const std::string device_name = cli.get("device", "DDR4-3200");
  const auto* dev = tbi::dram::find_config(device_name);
  if (dev == nullptr) {
    std::fprintf(stderr, "error: unknown device '%s'\n", device_name.c_str());
    return 1;
  }
  if (cli.has("trace") && cli.has("check")) {
    std::fprintf(stderr, "error: --trace and --check exclude each other (the "
                         "controller holds one observer)\n");
    return 1;
  }

  const std::uint64_t side = tbi::sim::paper_side_for(*dev);
  std::unique_ptr<tbi::mapping::IndexMapping> mapping;
  try {
    mapping = tbi::mapping::make_mapping(cli.get("mapping", "optimized"), *dev, side);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  tbi::dram::ControllerConfig cfg;
  cfg.queue_depth = cli.read_count<unsigned>("queue-depth", 64, 1);
  const auto max_bursts = cli.read_count<std::uint64_t>("max-bursts", 0, 0);
  if (cli.has("no-refresh")) cfg.refresh_mode = tbi::dram::RefreshMode::Disabled;
  if (cli.has("fcfs")) cfg.policy = tbi::dram::ControllerConfig::Policy::Fcfs;

  tbi::dram::Controller ctl(*dev, cfg);

  std::ofstream trace_file;
  std::unique_ptr<tbi::dram::TraceRecorder> recorder;
  std::unique_ptr<tbi::dram::TimingChecker> checker;
  if (cli.has("trace")) {
    trace_file.open(cli.get("trace", ""));
    if (!trace_file) {
      std::fprintf(stderr, "error: cannot open trace file '%s'\n",
                   cli.get("trace", "").c_str());
      return 1;
    }
    recorder = std::make_unique<tbi::dram::TraceRecorder>(trace_file);
    ctl.set_observer(recorder.get());
  } else if (cli.has("check")) {
    checker = std::make_unique<tbi::dram::TimingChecker>(*dev, ctl.refresh_mode());
    ctl.set_observer(checker.get());
  }

  std::printf("%s, %s, side %llu, refresh %s\n", dev->name.c_str(),
              mapping->name().c_str(), static_cast<unsigned long long>(side),
              to_string(ctl.refresh_mode()));

  if (recorder) recorder->comment("write phase");
  tbi::interleaver::WritePhaseStream ws(*mapping, max_bursts);
  print_phase(ctl.run_phase(ws, "write"));

  if (recorder) recorder->comment("read phase");
  tbi::interleaver::ReadPhaseStream rs(*mapping, max_bursts);
  print_phase(ctl.run_phase(rs, "read"));

  if (checker) {
    const auto violations = checker->finish();
    if (violations.empty()) {
      std::printf("protocol check: clean (%zu commands)\n",
                  checker->command_count());
    } else {
      std::printf("protocol check: %zu violations, first:\n  %s\n",
                  violations.size(), violations.front().c_str());
      return 2;
    }
  }
  if (recorder) {
    std::printf("trace: %llu commands -> %s\n",
                static_cast<unsigned long long>(recorder->commands_written()),
                cli.get("trace", "").c_str());
  }
  return 0;
}
