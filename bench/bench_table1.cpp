/// \file bench_table1.cpp
/// The paper grid: the triangular block interleaver on ten JEDEC devices
/// with the row-major and the optimized mapping. One sweep-engine pass
/// runs, for each of the 20 cells, its write and read phases, its
/// double-buffered streaming run and, for the optimized mapping only, a
/// refresh-disabled run (50 runs). The bench reads five views off them:
///
///  * Table I: write and read bandwidth utilization, with the Min
///    columns (the paper's bold numbers) that bound the interleaver
///    throughput (§I). Expected shape: row-major write stays high,
///    row-major read collapses on fast speed grades, the optimized mapping
///    stays above 90 % everywhere.
///  * Link sizing (§I): each interleaved bit is written and read, so a
///    G Gbit/s downlink (--target-gbps) needs 2G of DRAM traffic. The
///    min-phase bandwidth gives the parallel channels that carry it and
///    their estimated power: the oversizing a bad mapping costs.
///  * Energy (§I): the energy of both phases per byte moved. At full size
///    the row-major mapping costs 1.1-35.0 % more than the optimized one
///    on eight devices and 8.5-9.1 % less on the two DDR5 devices, where
///    the optimized mapping activates more rows per burst.
///  * Refresh (§III): the paper reads the optimized mapping's missing
///    percentages as refresh, and disabling refresh is legal while the
///    data lifetime (first write to last read) stays below the 32..64 ms
///    retention. At full size, refresh off lifts five devices to
///    99.55-100 % in both phases; five stay below 99 % in at least one
///    (write / read): DDR3-1600 98.97 / 99.96 %, DDR4-3200 98.26 / 94.34 %,
///    LPDDR4-4266 96.73 / 98.06 %, LPDDR5-4267 95.47 / 95.48 % and
///    LPDDR5-8533 94.46 / 94.99 %.
///  * Streaming: continuous operation, block k+1 written while block k is
///    read from a disjoint row region, 1:1 interleaved, against the
///    min(W, R) bound the paper argues from separate phases. At full size
///    the optimized mapping streams 0.76-30.32 % below its bound
///    (LPDDR5-8533 worst) and above the row-major mapping on every device.
///
/// Usage: bench_table1 [--symbols N] [--max-bursts M] [--target-gbps G]
///                     [--threads T] [--check] [--markdown] [--json FILE]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "perf/counters.hpp"
#include "sim/sweep.hpp"

namespace {

/// The runs of one (device, mapping) cell.
struct Cell {
  tbi::sim::BandwidthRecord phases;     ///< write and read, device-default refresh
  tbi::sim::PhaseResult streaming;      ///< double-buffered, 1:1 mixed
  tbi::sim::InterleaverRun no_refresh;  ///< refresh disabled; optimized mapping only
};

std::string fmt(const char* format, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

double energy_nj(const tbi::sim::InterleaverRun& run) {
  return run.write.energy.total_nj() + run.read.energy.total_nj();
}

}  // namespace

// A symbol count the devices cannot hold throws std::invalid_argument or
// std::out_of_range from the sizing or the mapping.
int main(int argc, char** argv) try {
  using tbi::TextTable;
  tbi::CliParser cli("bench_table1",
                     "the paper grid: Table I, link sizing, energy, refresh, streaming");
  cli.add_option("symbols", "count", "interleaver symbols (default 12.5M)");
  cli.add_option("max-bursts", "count", "truncate phases for quick runs");
  cli.add_option("target-gbps", "G", "downlink rate to sustain (default 100)");
  cli.add_option("threads", "T", "sweep worker threads (default: all cores)");
  cli.add_option("check", "", "validate all command streams with the JEDEC checker");
  cli.add_option("markdown", "", "print GitHub markdown instead of ASCII");
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
  // The bound keeps a channel count (2 * target / achieved Gbit/s) far
  // inside unsigned.
  if (!(target > 0 && target <= 1e6)) {
    std::fprintf(stderr, "error: --target-gbps must be in (0, 1e6], got %g\n", target);
    return 1;
  }
  tbi::sim::BandwidthSweepOptions options;
  options.total_symbols =
      cli.read_count<std::uint64_t>("symbols", tbi::sim::kPaperSymbols, 1);
  options.max_bursts_per_phase = cli.read_count<std::uint64_t>("max-bursts", 0, 0);
  options.check_protocol = cli.has("check");
  options.sweep.threads = cli.read_count<unsigned>("threads", 0, 0);

  // Device-major, mapping inner: cell 2d is device d's row-major cell and
  // 2d + 1 its optimized one.
  const auto grid = tbi::sim::SweepGrid::paper_bandwidth_grid().expand();
  const auto wall_start = std::chrono::steady_clock::now();
  const auto cells =
      tbi::sim::sweep_map(grid.size(), options.sweep, [&](std::uint64_t i, std::uint64_t) {
        Cell cell;
        cell.phases = tbi::sim::run_bandwidth_cell(grid[i], options);
        const tbi::sim::RunConfig& rc = cell.phases.config;
        cell.streaming = tbi::sim::run_streaming(rc);
        if (rc.mapping_spec == "optimized") {
          tbi::sim::RunConfig off = rc;
          off.controller.use_device_default_refresh = false;
          off.controller.refresh_mode = tbi::dram::RefreshMode::Disabled;
          cell.no_refresh = tbi::sim::run_interleaver(off);
        }
        return cell;
      });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  TextTable table1("Table I: DRAM bandwidth utilizations (" +
                   std::to_string(options.total_symbols) +
                   "-symbol triangular interleaver)");
  table1.set_header({"DRAM Configuration", "Row-Major Write", "Row-Major Read",
                     "Row-Major Min", "Optimized Write", "Optimized Read",
                     "Optimized Min", "Gain"});
  TextTable link(fmt("Sizing DRAM for a %.0f Gbit/s optical downlink", target));
  link.set_header({"DRAM Configuration", "Peak Gbit/s", "Mapping", "Achieved Gbit/s",
                   "Channels", "Power (W, est.)"});
  TextTable energy("Energy of the write and read phase");
  energy.set_header({"DRAM Configuration", "Mapping", "ACT/kBurst", "Energy", "nJ/B",
                     "Overhead"});
  TextTable refresh("Optimized mapping: device-default refresh vs refresh disabled");
  refresh.set_header({"DRAM Configuration", "Refresh Mode", "Write", "Read",
                      "Write (no REF)", "Read (no REF)", "Data Lifetime"});
  TextTable streaming("Continuous operation (1:1 mixed write/read)");
  streaming.set_header({"DRAM Configuration", "Mapping", "min(W,R) bound", "Streaming",
                        "Turnaround cost"});

  std::string short_of_99;  // devices whose refresh-off phases miss 99 %
  unsigned devices_short = 0;
  std::uint64_t simulated_bursts = 0;
  tbi::Json::Array records;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const tbi::sim::InterleaverRun& run = cell.phases.run;
    const tbi::dram::DeviceConfig& device = cell.phases.config.device;
    const std::string& spec = grid[i].mapping_spec;
    const bool optimized = spec == "optimized";
    const std::string name = optimized ? "" : device.name;
    const tbi::dram::PhaseStats& mixed = cell.streaming.stats;

    const double achieved = run.throughput_gbps(device.burst_bytes);
    const unsigned channels =
        static_cast<unsigned>(std::ceil(2 * target / std::max(achieved, 1e-9)));
    const double nj = energy_nj(run);
    const double seconds =
        static_cast<double>(run.write.stats.elapsed() + run.read.stats.elapsed()) * 1e-12;
    const double watts = seconds > 0 ? nj * 1e-9 / seconds : 0.0;
    const double bytes = static_cast<double>(run.total_bursts()) * device.burst_bytes;
    const double overhead_pct =
        100.0 * (nj / energy_nj(cells[optimized ? i : i + 1].phases.run) - 1.0);
    const double bound = run.min_utilization();

    link.add_row({name, TextTable::num(device.peak_bandwidth_gbps(), 1), spec,
                  TextTable::num(achieved, 1), std::to_string(channels),
                  TextTable::num(watts * channels, 2)});
    energy.add_row({name, spec,
                    TextTable::num(1000.0 * static_cast<double>(run.total_activates()) /
                                       static_cast<double>(run.total_bursts()),
                                   1),
                    fmt("%.2f mJ", nj * 1e-6), fmt("%.3f", nj / bytes),
                    fmt("%+.1f %%", overhead_pct)});
    streaming.add_row({name, spec, TextTable::pct(bound),
                       TextTable::pct(mixed.utilization()),
                       TextTable::pct(std::max(0.0, bound - mixed.utilization()))});

    tbi::Json record;
    record["device"] = device.name;
    record["mapping"] = run.mapping_name;
    record["peak_gbps"] = device.peak_bandwidth_gbps();
    record["write_gbps"] = run.write.stats.bandwidth_gbps(device.burst_bytes);
    record["read_gbps"] = run.read.stats.bandwidth_gbps(device.burst_bytes);
    record["throughput_gbps"] = achieved;
    record["meets_target"] = achieved / 2.0 >= target;
    record["bursts"] = run.total_bursts();
    record["activates"] = run.total_activates();
    record["sched_ns_per_pick"] = run.sched_ns_per_pick();
    record["candidates_per_pick"] = run.candidates_per_pick();
    record["energy_nj"] = nj;
    record["nj_per_byte"] = nj / bytes;
    record["energy_overhead_pct"] = overhead_pct;
    record["refresh_mode"] = to_string(device.default_refresh);
    record["write_utilization"] = run.write.stats.utilization();
    record["read_utilization"] = run.read.stats.utilization();
    record["refreshes"] = run.write.stats.refreshes + run.read.stats.refreshes;
    record["min_phase_utilization"] = bound;
    tbi::Json stream;
    stream["utilization"] = mixed.utilization();
    stream["bursts"] = mixed.bursts;
    stream["activates"] = mixed.activates;
    stream["row_hit_rate"] = mixed.row_hit_rate();
    stream["sched_ns_per_pick"] = mixed.ns_per_pick();
    stream["candidates_per_pick"] = mixed.candidates_per_pick();
    record["streaming"] = stream;
    simulated_bursts += run.total_bursts() + mixed.bursts;

    if (optimized) {
      const tbi::sim::InterleaverRun& rm = cells[i - 1].phases.run;
      const tbi::sim::InterleaverRun& off = cell.no_refresh;
      table1.add_row({device.name, TextTable::pct(rm.write.stats.utilization()),
                      TextTable::pct(rm.read.stats.utilization()),
                      TextTable::pct(rm.min_utilization()),
                      TextTable::pct(run.write.stats.utilization()),
                      TextTable::pct(run.read.stats.utilization()), TextTable::pct(bound),
                      TextTable::num(bound / rm.min_utilization(), 2) + "x"});
      // Wall time between writing the first burst and reading the last
      // one: both phases back to back.
      const double lifetime_ms = (off.read.stats.end - off.write.stats.start) / 1e9;
      refresh.add_row({device.name, to_string(device.default_refresh),
                       TextTable::pct(run.write.stats.utilization()),
                       TextTable::pct(run.read.stats.utilization()),
                       TextTable::pct(off.write.stats.utilization()),
                       TextTable::pct(off.read.stats.utilization()),
                       fmt("%.2f ms", lifetime_ms)});
      if (off.min_utilization() < 0.99) {
        ++devices_short;
        short_of_99 += "  " + device.name + ": " +
                       TextTable::pct(off.write.stats.utilization()) + " / " +
                       TextTable::pct(off.read.stats.utilization()) + "\n";
      }
      tbi::Json no_ref;
      no_ref["write_utilization"] = off.write.stats.utilization();
      no_ref["read_utilization"] = off.read.stats.utilization();
      no_ref["lifetime_ms"] = lifetime_ms;
      record["no_refresh"] = no_ref;
      simulated_bursts += off.total_bursts();
    }
    records.push_back(record);
  }

  const auto print = [markdown = cli.has("markdown")](const TextTable& t,
                                                      const std::string& note) {
    std::fputs(markdown ? t.render_markdown().c_str() : t.render().c_str(), stdout);
    std::fputs(("\n" + note + "\n\n").c_str(), stdout);
  };
  print(table1,
        "The minimum of write and read bounds the interleaver throughput (paper\n"
        "§I); Gain is the optimized minimum over the row-major one.");
  print(link,
        "Each interleaved bit is written and read, so the link needs " +
            fmt("%.0f", 2 * target) +
            " Gbit/s\n"
            "of DRAM traffic: Channels = ceil(traffic / achieved min-phase Gbit/s),\n"
            "and one channel meets the link. Where the row-major row needs more\n"
            "channels than the optimized row, the difference is the oversizing the\n"
            "paper's mapping removes.");
  print(energy,
        "Overhead: energy of the cell relative to the optimized mapping on the\n"
        "same device (same data moved).");
  print(refresh,
        "Refresh off, the optimized mapping reaches 99 % in both phases on " +
            std::to_string(cells.size() / 2 - devices_short) + " of " +
            std::to_string(cells.size() / 2) + "\ndevices." +
            (devices_short ? " Below 99 % (write / read):\n" + short_of_99 : "\n") +
            "Disabling refresh is legal while the data lifetime stays below the\n"
            "DRAM retention period (32..64 ms, paper §III).");
  print(streaming,
        "Turnaround cost: mixed traffic pays the bus-turnaround and\n"
        "write-to-read penalties the separate phases never see. For the\n"
        "row-major mapping the write stream can fill bubbles of the slow read\n"
        "stream and lift the mixed utilization above min(W,R).");

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_table1";
    tbi::Json config;
    config["symbols"] = options.total_symbols;
    config["max_bursts"] = options.max_bursts_per_phase;
    config["target_gbps"] = target;
    config["threads"] = static_cast<std::uint64_t>(options.sweep.threads);
    config["check"] = options.check_protocol;
    doc["config"] = config;
    doc["wall_seconds"] = wall_seconds;
    doc["records"] = records;
    doc["simulated_bursts"] = simulated_bursts;
    doc["bursts_per_second"] =
        wall_seconds > 0 ? static_cast<double>(simulated_bursts) / wall_seconds : 0.0;
    tbi::Json perf;
    perf["process_allocations"] = tbi::perf::process_alloc_count();
    doc["perf"] = perf;
    if (!tbi::Json::write_file(cli.get("json", ""), doc)) {
      return 1;
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
