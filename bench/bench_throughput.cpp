/// \file bench_throughput.cpp
/// E8 — the paper's framing of the problem (§I): the interleaver
/// throughput is bounded by min(write, read) bandwidth, and a >100 Gbit/s
/// optical downlink therefore needs either the optimized mapping or a
/// heavily oversized DRAM configuration.
///
/// Prints the achievable interleaver throughput per device and mapping and
/// flags which (device, mapping) pairs clear the 100 Gbit/s requirement.
///
/// Usage: bench_throughput [--target-gbps G] [--max-bursts M] [--markdown]
///                         [--threads T] [--json FILE]
#include <chrono>
#include <cstdio>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "perf/counters.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) {
  tbi::CliParser cli("bench_throughput",
                     "achievable interleaver throughput per configuration");
  cli.add_option("target-gbps", "G", "link requirement (default 100)");
  cli.add_option("max-bursts", "count", "truncate phases for quick runs");
  cli.add_option("markdown", "", "print GitHub markdown");
  cli.add_option("threads", "T", "sweep worker threads (default: all cores)");
  cli.add_option("json", "file", "write config + wall time + records as JSON");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  const double target = cli.get_double("target-gbps", 100.0);
  // The range throughput_planner accepts, which sizes channels from it.
  if (!(target > 0 && target <= 1e6)) {
    std::fprintf(stderr, "error: --target-gbps must be in (0, 1e6], got %g\n", target);
    return 1;
  }

  tbi::sim::BandwidthSweepOptions options;
  options.sweep.threads = cli.read_count<unsigned>("threads", 0, 0);
  options.max_bursts_per_phase = cli.read_count<std::uint64_t>("max-bursts", 0, 0);
  const auto grid = tbi::sim::SweepGrid::paper_bandwidth_grid();
  const auto wall_start = std::chrono::steady_clock::now();
  const auto records = tbi::sim::run_bandwidth_sweep(grid, options);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  tbi::TextTable t("Achievable interleaver throughput (min of both phases)");
  t.set_header({"DRAM Configuration", "Peak", "Row-Major", "Optimized",
                "Row-Major OK?", "Optimized OK?"});

  // Records are device-major with the two mappings adjacent.
  for (std::size_t d = 0; d < grid.devices.size(); ++d) {
    const auto& device = records[2 * d].config.device;
    const double rm = records[2 * d].run.throughput_gbps(device.burst_bytes);
    const double opt = records[2 * d + 1].run.throughput_gbps(device.burst_bytes);

    // The interleaver writes AND reads every bit, so a link rate of G
    // needs G of write bandwidth and G of read bandwidth concurrently-ish;
    // with serialized phases the requirement per phase is 2G of the
    // device budget. We report the serialized-phase figure of merit
    // (min-phase bandwidth / 2) against the target.
    char peak[32], rms[32], opts[32];
    std::snprintf(peak, sizeof peak, "%.1f", device.peak_bandwidth_gbps());
    std::snprintf(rms, sizeof rms, "%.1f", rm);
    std::snprintf(opts, sizeof opts, "%.1f", opt);
    t.add_row({device.name, peak, rms, opts,
               rm / 2.0 >= target ? "yes" : "no",
               opt / 2.0 >= target ? "yes" : "no"});
  }
  std::fputs(cli.has("markdown") ? t.render_markdown().c_str() : t.render().c_str(),
             stdout);
  std::printf(
      "\nAll numbers in Gbit/s. OK? columns: half the min-phase bandwidth\n"
      "must clear the %.0f Gbit/s link (each bit is written and read).\n",
      target);

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_throughput";
    tbi::Json config;
    config["target_gbps"] = target;
    config["max_bursts"] = options.max_bursts_per_phase;
    config["threads"] = static_cast<std::uint64_t>(options.sweep.threads);
    doc["config"] = config;
    doc["wall_seconds"] = wall_seconds;
    std::uint64_t total_bursts = 0;
    tbi::Json::Array rows;
    for (const auto& r : records) {
      const auto& device = r.config.device;
      tbi::Json row;
      row["device"] = device.name;
      row["mapping"] = r.run.mapping_name;
      row["peak_gbps"] = device.peak_bandwidth_gbps();
      row["write_gbps"] = r.run.write.stats.bandwidth_gbps(device.burst_bytes);
      row["read_gbps"] = r.run.read.stats.bandwidth_gbps(device.burst_bytes);
      row["throughput_gbps"] = r.run.throughput_gbps(device.burst_bytes);
      row["meets_target"] = r.run.throughput_gbps(device.burst_bytes) / 2.0 >= target;
      row["bursts"] = r.run.total_bursts();
      row["activates"] = r.run.total_activates();
      row["sched_ns_per_pick"] = r.run.sched_ns_per_pick();
      row["candidates_per_pick"] = r.run.candidates_per_pick();
      rows.push_back(row);
      total_bursts += r.run.write.stats.bursts + r.run.read.stats.bursts;
    }
    doc["records"] = rows;
    doc["simulated_bursts"] = total_bursts;
    doc["bursts_per_second"] =
        wall_seconds > 0 ? static_cast<double>(total_bursts) / wall_seconds : 0.0;
    tbi::Json perf;
    perf["process_allocations"] = tbi::perf::process_alloc_count();
    doc["perf"] = perf;
    if (!tbi::Json::write_file(cli.get("json", ""), doc)) {
      return 1;
    }
  }
  return 0;
}
