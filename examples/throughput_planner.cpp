/// \file throughput_planner.cpp
/// System-sizing helper built on the simulator: given a target link rate,
/// find the cheapest DRAM configuration (and how many parallel channels)
/// that sustains the interleaver, for each mapping. This is the paper's
/// §I argument made concrete — with the row-major mapping the memory
/// system must be oversized (faster speed grade or more channels), which
/// costs board area, money and energy.
///
/// Usage: throughput_planner [--target-gbps G] [--max-bursts M]
#include <cmath>
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dram/energy.hpp"
#include "dram/standards.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  tbi::CliParser cli("throughput_planner",
                     "DRAM channel sizing for a target optical link rate");
  cli.add_option("target-gbps", "G", "downlink rate to sustain (default 100)");
  cli.add_option("max-bursts", "count", "truncate phases (default 40000)");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  const double target = cli.get_double("target-gbps", 100.0);
  // The bound keeps a channel count (2 * target / achieved Gbit/s) far
  // inside unsigned.
  if (!(target > 0 && target <= 1e6)) {
    std::fprintf(stderr, "error: --target-gbps must be in (0, 1e6], got %g\n", target);
    return 1;
  }
  const auto max_bursts = cli.read_count<std::uint64_t>("max-bursts", 40000, 0);

  std::printf("Sizing DRAM for a %.0f Gbit/s optical downlink\n", target);
  std::printf("(each interleaved bit is written and read -> %.0f Gbit/s of\n",
              2 * target);
  std::printf(" DRAM traffic; channel count = ceil(traffic / achieved BW))\n\n");

  tbi::TextTable t("Channels needed to sustain the link");
  t.set_header({"DRAM Configuration", "Peak Gbit/s", "Mapping",
                "Achieved Gbit/s", "Channels", "Power (W, est.)"});

  for (const auto& device : tbi::dram::standard_configs()) {
    for (const std::string spec : {"row-major", "optimized"}) {
      tbi::sim::RunConfig rc;
      rc.device = device;
      rc.mapping_spec = spec;
      rc.side = tbi::sim::paper_side_for(device);
      rc.max_bursts_per_phase = max_bursts;
      const auto run = tbi::sim::run_interleaver(rc);

      // Sustained two-phase traffic a single channel absorbs:
      const double achieved = run.throughput_gbps(device.burst_bytes);
      const unsigned channels = static_cast<unsigned>(
          std::ceil(2 * target / std::max(achieved, 1e-9)));

      // Rough per-channel power from the energy model at full tilt.
      const auto wr = run.write;
      const auto rd = run.read;
      const double nj =
          wr.energy.total_nj() + rd.energy.total_nj();
      const double seconds =
          static_cast<double>(wr.stats.elapsed() + rd.stats.elapsed()) * 1e-12;
      const double watts = seconds > 0 ? nj * 1e-9 / seconds : 0.0;

      char peak[32], ach[32], pwr[32];
      std::snprintf(peak, sizeof peak, "%.1f", device.peak_bandwidth_gbps());
      std::snprintf(ach, sizeof ach, "%.1f", achieved);
      std::snprintf(pwr, sizeof pwr, "%.2f", watts * channels);
      t.add_row({spec == "row-major" ? device.name : "", peak, spec, ach,
                 std::to_string(channels), pwr});
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts(
      "\nReading guide: wherever the row-major row needs more channels than\n"
      "the optimized row on the same device, that difference is the\n"
      "oversizing cost the paper's mapping removes.");
  return 0;
}
