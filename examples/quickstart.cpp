/// \file quickstart.cpp
/// Minimal end-to-end tour of the library:
///  1. pick a DRAM device,
///  2. size the paper's 12.5 M-symbol triangular interleaver on it,
///  3. simulate write and read phase with the row-major baseline and the
///     optimized mapping,
///  4. print the bandwidth utilizations side by side.
///
/// Usage: quickstart [--device DDR4-3200] [--symbols N] [--queue-depth Q]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "interleaver/streams.hpp"
#include "sim/runner.hpp"

// A symbol count the devices cannot hold throws std::invalid_argument
// from the sizing or the mapping.
int main(int argc, char** argv) try {
  tbi::CliParser cli("quickstart", "simulate one device with both mappings");
  cli.add_option("device", "name", "DRAM configuration (default DDR4-3200)");
  cli.add_option("symbols", "count", "interleaver size in symbols (default 12.5M)");
  cli.add_option("queue-depth", "n", "controller queue depth (default 64)");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }

  const std::string device_name = cli.get("device", "DDR4-3200");
  const auto* device = tbi::dram::find_config(device_name);
  if (device == nullptr) {
    std::fprintf(stderr, "error: unknown device '%s'\n", device_name.c_str());
    return 1;
  }

  const auto symbols = cli.read_count<std::uint64_t>("symbols", 12'500'000, 1);
  const auto queue_depth = cli.read_count<unsigned>("queue-depth", 64, 1);
  const std::uint64_t side =
      tbi::interleaver::burst_triangle_side(symbols, tbi::sim::kPaperSymbolBits,
                                            device->burst_bytes);

  std::printf("device        : %s (%.1f Gbit/s peak, %u banks / %u groups)\n",
              device->name.c_str(), device->peak_bandwidth_gbps(), device->banks,
              device->bank_groups);
  std::printf("interleaver   : %llu symbols -> %llu x %llu bursts (triangular)\n\n",
              static_cast<unsigned long long>(symbols),
              static_cast<unsigned long long>(side),
              static_cast<unsigned long long>(side));

  tbi::TextTable table("Bandwidth utilization (min of both phases bounds throughput)");
  table.set_header({"Mapping", "Write", "Read", "Min", "Throughput"});

  for (const std::string spec : {"row-major", "optimized"}) {
    tbi::sim::RunConfig rc;
    rc.device = *device;
    rc.controller.queue_depth = queue_depth;
    rc.mapping_spec = spec;
    rc.side = side;
    const auto run = tbi::sim::run_interleaver(rc);
    char tput[32];
    std::snprintf(tput, sizeof tput, "%.1f Gbit/s",
                  run.throughput_gbps(device->burst_bytes));
    table.add_row({run.mapping_name,
                   tbi::TextTable::pct(run.write.stats.utilization()),
                   tbi::TextTable::pct(run.read.stats.utilization()),
                   tbi::TextTable::pct(run.min_utilization()), tput});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
