/// \file bench_table1.cpp
/// The paper's DRAM evaluation: the triangular block interleaver on ten
/// JEDEC devices with the row-major and the optimized mapping, and the
/// studies around those cells. Every study asks for its runs from one list
/// that keeps each distinct RunConfig once (equal in every field), so a
/// run two studies share is simulated once: at the default size the
/// studies ask for 143 runs, 115 of them distinct. One sweep-engine pass
/// runs the list and a second the 20 cells' double-buffered streaming
/// runs. The bench prints these views, in this order:
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
///  * Dimensions (§III): "Results for other interleaver dimensions are
///    omitted ... because they differ only slightly." The min utilization
///    of both mappings on every device at 0.8, 3, 12.5 and 50 M symbols,
///    two orders of magnitude.
///  * Ablation of the three optimizations of §II on three fast speed
///    grades, showing why each ingredient is needed:
///      none      : square row-major placement (baseline pathology)
///      diag      : bank round-robin only: tCCD_S everywhere, but page
///                  misses still concentrate in one direction
///      tile      : page tiling only: misses split between directions,
///                  but consecutive accesses stay in one bank group
///      diag+tile : both: misses of all banks collide at tile boundaries
///      full      : + bank-dependent column offset staggers those misses
///  * Controller design choices the paper holds fixed, on DDR4-3200: queue
///    depth, scheduling policy and the row-major baseline's physical
///    address layout. They show how much of the baseline's behavior
///    depends on controller quality rather than on the mapping, and that
///    no realistic controller configuration rescues it.
///
/// --symbols sizes Table I and its views, the ablation and the controller
/// study; the dimension sweep keeps its four sizes. --max-bursts and
/// --check apply to every run. A checked run records every command for
/// the checker, so a full-size --check holds up to about 250 MB per
/// thread (a 50 M-symbol run).
///
/// Usage: bench_table1 [--symbols N] [--max-bursts M] [--target-gbps G]
///                     [--threads T] [--check] [--markdown] [--json FILE]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "interleaver/streams.hpp"
#include "perf/counters.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

namespace {

using tbi::TextTable;
using tbi::dram::DeviceConfig;
using tbi::sim::InterleaverRun;
using tbi::sim::RunConfig;
using Policy = tbi::dram::ControllerConfig::Policy;

constexpr const char* kMappings[] = {"row-major", "optimized"};
constexpr std::uint64_t kDimensionSymbols[] = {800'000, 3'000'000, 12'500'000,
                                               50'000'000};
constexpr const char* kAblationDevices[] = {"DDR4-3200", "LPDDR4-4266", "LPDDR5-8533"};
constexpr const char* kAblationVariants[] = {"optimized/none", "optimized/diag",
                                             "optimized/tile", "optimized/diag+tile",
                                             "optimized"};
constexpr const char* kControllerDevice = "DDR4-3200";
constexpr unsigned kQueueDepths[] = {1, 4, 16, 64, 256};
constexpr std::pair<Policy, const char*> kPolicies[] = {{Policy::Fcfs, "FCFS"},
                                                        {Policy::FrFcfs, "FR-FCFS"}};
constexpr const char* kLayouts[] = {"row-major", "row-major/robaco", "row-major/rocoba",
                                    "row-major/xor"};

std::string fmt(const char* format, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

double energy_nj(const InterleaverRun& run) {
  return run.write.energy.total_nj() + run.read.energy.total_nj();
}

/// The controller study's record keys shared by a row-major and an
/// optimized run.
tbi::Json mapping_pair(const InterleaverRun& rm, const InterleaverRun& opt) {
  tbi::Json row;
  row["device"] = rm.device_name;
  row["row_major_min_utilization"] = rm.min_utilization();
  row["optimized_min_utilization"] = opt.min_utilization();
  row["bursts"] = rm.total_bursts() + opt.total_bursts();
  row["row_major_sched_ns_per_pick"] = rm.sched_ns_per_pick();
  row["optimized_sched_ns_per_pick"] = opt.sched_ns_per_pick();
  row["row_major_candidates_per_pick"] = rm.candidates_per_pick();
  row["optimized_candidates_per_pick"] = opt.candidates_per_pick();
  return row;
}

}  // namespace

// A symbol count the devices cannot hold throws std::invalid_argument or
// std::out_of_range from the sizing or the mapping.
int main(int argc, char** argv) try {
  tbi::CliParser cli("bench_table1",
                     "the paper's DRAM evaluation: Table I, link sizing, energy, "
                     "refresh, streaming, dimensions, ablation, controller");
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
  const auto symbols =
      cli.read_count<std::uint64_t>("symbols", tbi::sim::kPaperSymbols, 1);
  const auto max_bursts = cli.read_count<std::uint64_t>("max-bursts", 0, 0);
  const bool check = cli.has("check");
  tbi::sim::SweepOptions sweep;
  sweep.threads = cli.read_count<unsigned>("threads", 0, 0);

  // The distinct runs: add() lists a RunConfig unless an equal one (every
  // field) is listed and returns its index. Each study keeps the indices
  // of the runs it asked for.
  std::vector<RunConfig> configs;
  const auto add = [&configs](const RunConfig& rc) {
    const auto at = static_cast<std::size_t>(
        std::find(configs.begin(), configs.end(), rc) - configs.begin());
    if (at == configs.size()) configs.push_back(rc);
    return at;
  };
  const auto run_config = [&](const DeviceConfig& device, const char* mapping,
                              std::uint64_t total_symbols) {
    RunConfig rc;
    rc.device = device;
    rc.mapping_spec = mapping;
    rc.side = tbi::interleaver::burst_triangle_side(
        total_symbols, tbi::sim::kPaperSymbolBits, device.burst_bytes);
    rc.max_bursts_per_phase = max_bursts;
    rc.check_protocol = check;
    return rc;
  };

  // The paper grid, device-major, mapping inner: cell 2d is device d's
  // row-major cell and 2d + 1 its optimized one; no_refresh_run[d] is the
  // optimized cell with refresh disabled.
  const auto& devices = tbi::dram::standard_configs();
  std::vector<RunConfig> cells;
  std::vector<std::size_t> cell_run, no_refresh_run;
  for (const auto& device : devices) {
    for (const char* mapping : kMappings) {
      cells.push_back(run_config(device, mapping, symbols));
      cell_run.push_back(add(cells.back()));
    }
    RunConfig off = cells.back();
    off.controller.refresh_mode = tbi::dram::RefreshMode::Disabled;
    no_refresh_run.push_back(add(off));
  }
  // Device-major, then size, then mapping.
  std::vector<std::size_t> dimension_run;
  for (const auto& device : devices) {
    for (const std::uint64_t size : kDimensionSymbols) {
      for (const char* mapping : kMappings) {
        dimension_run.push_back(add(run_config(device, mapping, size)));
      }
    }
  }
  // Device-major, variant inner.
  std::vector<std::size_t> ablation_run;
  for (const char* name : kAblationDevices) {
    const DeviceConfig& device = *tbi::dram::find_config(name);
    for (const char* variant : kAblationVariants) {
      ablation_run.push_back(add(run_config(device, variant, symbols)));
    }
  }
  const DeviceConfig& controller_device = *tbi::dram::find_config(kControllerDevice);
  const auto controller_run = [&](const char* mapping, unsigned queue_depth,
                                  Policy policy) {
    RunConfig rc = run_config(controller_device, mapping, symbols);
    rc.controller.queue_depth = queue_depth;
    rc.controller.policy = policy;
    return add(rc);
  };
  // Queue depth and policy rows each hold a row-major and an optimized run.
  std::vector<std::size_t> queue_run, policy_run, layout_run;
  for (const unsigned depth : kQueueDepths) {
    for (const char* mapping : kMappings) {
      queue_run.push_back(controller_run(mapping, depth, Policy::FrFcfs));
    }
  }
  for (const auto& [policy, name] : kPolicies) {
    for (const char* mapping : kMappings) {
      policy_run.push_back(controller_run(mapping, 64, policy));
    }
  }
  for (const char* layout : kLayouts) {
    layout_run.push_back(controller_run(layout, 64, Policy::FrFcfs));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const auto runs = tbi::sim::sweep_map(configs.size(), sweep,
                                        [&](std::uint64_t i, std::uint64_t) {
    return tbi::sim::run_interleaver(configs[i]);
  });
  const auto streams = tbi::sim::sweep_map(cells.size(), sweep,
                                           [&](std::uint64_t i, std::uint64_t) {
    return tbi::sim::run_streaming(cells[i]);
  });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  std::uint64_t simulated_bursts = 0;
  for (const auto& run : runs) simulated_bursts += run.total_bursts();
  for (const auto& stream : streams) simulated_bursts += stream.stats.bursts;

  TextTable table1("Table I: DRAM bandwidth utilizations (" + std::to_string(symbols) +
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
  tbi::Json::Array records;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const InterleaverRun& run = runs[cell_run[i]];
    const DeviceConfig& device = cells[i].device;
    const std::string& spec = cells[i].mapping_spec;
    const bool optimized = spec == "optimized";
    const std::string name = optimized ? "" : device.name;
    const tbi::dram::PhaseStats& mixed = streams[i].stats;

    const double achieved = run.throughput_gbps(device.burst_bytes);
    const unsigned channels =
        static_cast<unsigned>(std::ceil(2 * target / std::max(achieved, 1e-9)));
    const double nj = energy_nj(run);
    const double seconds =
        static_cast<double>(run.write.stats.elapsed() + run.read.stats.elapsed()) * 1e-12;
    const double watts = seconds > 0 ? nj * 1e-9 / seconds : 0.0;
    const double bytes = static_cast<double>(run.total_bursts()) * device.burst_bytes;
    const double overhead_pct =
        100.0 * (nj / energy_nj(runs[cell_run[optimized ? i : i + 1]]) - 1.0);
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

    if (optimized) {
      const InterleaverRun& rm = runs[cell_run[i - 1]];
      const InterleaverRun& off = runs[no_refresh_run[i / 2]];
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
    }
    records.push_back(record);
  }

  TextTable dimensions("Interleaver dimension sweep (min utilization per mapping)");
  std::vector<std::string> dimension_header = {"DRAM Configuration", "Mapping"};
  for (const std::uint64_t size : kDimensionSymbols) {
    dimension_header.push_back(fmt("%.1fM sym", static_cast<double>(size) / 1e6));
  }
  dimensions.set_header(dimension_header);
  tbi::Json::Array dimension_records;
  for (std::size_t d = 0, k = 0; d < devices.size(); ++d) {
    std::vector<std::string> rm_row = {devices[d].name, "row-major"};
    std::vector<std::string> opt_row = {"", "optimized"};
    for (const std::uint64_t size : kDimensionSymbols) {
      const InterleaverRun& rm = runs[dimension_run[k]];
      const InterleaverRun& opt = runs[dimension_run[k + 1]];
      rm_row.push_back(TextTable::pct(rm.min_utilization()));
      opt_row.push_back(TextTable::pct(opt.min_utilization()));
      tbi::Json row;
      row["device"] = devices[d].name;
      row["total_symbols"] = size;
      row["side_bursts"] = configs[dimension_run[k]].side;
      row["row_major_min"] = rm.min_utilization();
      row["optimized_min"] = opt.min_utilization();
      row["row_major_sched_ns_per_pick"] = rm.sched_ns_per_pick();
      row["optimized_sched_ns_per_pick"] = opt.sched_ns_per_pick();
      dimension_records.push_back(row);
      k += 2;
    }
    dimensions.add_row(rm_row);
    dimensions.add_row(opt_row);
  }

  std::vector<TextTable> ablation;
  tbi::Json::Array ablation_records;
  for (std::size_t k = 0; k < ablation_run.size(); ++k) {
    const InterleaverRun& run = runs[ablation_run[k]];
    if (k % std::size(kAblationVariants) == 0) {
      ablation.emplace_back("Optimization ablation on " + run.device_name);
      ablation.back().set_header({"Mapping Variant", "Write", "Read", "Min"});
    }
    ablation.back().add_row({run.mapping_name,
                             TextTable::pct(run.write.stats.utilization()),
                             TextTable::pct(run.read.stats.utilization()),
                             TextTable::pct(run.min_utilization())});
    tbi::Json row;
    row["device"] = run.device_name;
    row["variant"] = run.mapping_name;
    row["write"] = run.write.stats.utilization();
    row["read"] = run.read.stats.utilization();
    row["min"] = run.min_utilization();
    row["sched_ns_per_pick"] = run.sched_ns_per_pick();
    ablation_records.push_back(row);
  }

  TextTable queue("Queue depth sweep on " + controller_device.name +
                  " (FR-FCFS, min utilization)");
  queue.set_header({"Queue Depth", "Row-Major", "Optimized"});
  tbi::Json::Array queue_records;
  for (std::size_t q = 0; q < std::size(kQueueDepths); ++q) {
    const InterleaverRun& rm = runs[queue_run[2 * q]];
    const InterleaverRun& opt = runs[queue_run[2 * q + 1]];
    queue.add_row({std::to_string(kQueueDepths[q]),
                   TextTable::pct(rm.min_utilization()),
                   TextTable::pct(opt.min_utilization())});
    tbi::Json row = mapping_pair(rm, opt);
    row["queue_depth"] = static_cast<std::uint64_t>(kQueueDepths[q]);
    queue_records.push_back(row);
  }
  TextTable policies("Scheduling policy on " + controller_device.name +
                     " (min utilization)");
  policies.set_header({"Policy", "Row-Major", "Optimized"});
  tbi::Json::Array policy_records;
  for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
    const InterleaverRun& rm = runs[policy_run[2 * p]];
    const InterleaverRun& opt = runs[policy_run[2 * p + 1]];
    policies.add_row({kPolicies[p].second, TextTable::pct(rm.min_utilization()),
                      TextTable::pct(opt.min_utilization())});
    tbi::Json row = mapping_pair(rm, opt);
    row["policy"] = kPolicies[p].second;
    policy_records.push_back(row);
  }
  TextTable layouts("Row-major baseline: physical address layout on " +
                    controller_device.name);
  layouts.set_header({"Layout", "Write", "Read", "Min"});
  tbi::Json::Array layout_records;
  for (const std::size_t index : layout_run) {
    const InterleaverRun& run = runs[index];
    layouts.add_row({run.mapping_name, TextTable::pct(run.write.stats.utilization()),
                     TextTable::pct(run.read.stats.utilization()),
                     TextTable::pct(run.min_utilization())});
    tbi::Json row;
    row["device"] = run.device_name;
    row["layout"] = run.mapping_name;
    row["write_utilization"] = run.write.stats.utilization();
    row["read_utilization"] = run.read.stats.utilization();
    row["min_utilization"] = run.min_utilization();
    row["bursts"] = run.total_bursts();
    row["sched_ns_per_pick"] = run.sched_ns_per_pick();
    row["candidates_per_pick"] = run.candidates_per_pick();
    layout_records.push_back(row);
  }

  // A table, a blank line, and its note (if any) followed by one.
  const auto print = [markdown = cli.has("markdown")](const TextTable& t,
                                                      const std::string& note = "") {
    std::fputs(markdown ? t.render_markdown().c_str() : t.render().c_str(), stdout);
    std::fputs(("\n" + (note.empty() ? note : note + "\n\n")).c_str(), stdout);
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
            std::to_string(devices.size() - devices_short) + " of " +
            std::to_string(devices.size()) + "\ndevices." +
            (devices_short ? " Below 99 % (write / read):\n" + short_of_99 : "\n") +
            "Disabling refresh is legal while the data lifetime stays below the\n"
            "DRAM retention period (32..64 ms, paper §III).");
  print(streaming,
        "Turnaround cost: mixed traffic pays the bus-turnaround and\n"
        "write-to-read penalties the separate phases never see. For the\n"
        "row-major mapping the write stream can fill bubbles of the slow read\n"
        "stream and lift the mixed utilization above min(W,R).");
  print(dimensions,
        "Expected shape: per mapping the columns differ only slightly\n"
        "(paper §III), while row-major vs optimized differ greatly.");
  for (const TextTable& t : ablation) print(t);
  print(queue);
  print(policies);
  print(layouts);

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_table1";
    tbi::Json config;
    config["symbols"] = symbols;
    config["max_bursts"] = max_bursts;
    config["target_gbps"] = target;
    config["threads"] = static_cast<std::uint64_t>(sweep.threads);
    config["check"] = check;
    doc["config"] = config;
    doc["wall_seconds"] = wall_seconds;
    doc["records"] = records;
    doc["dimensions"] = dimension_records;
    doc["ablation"] = ablation_records;
    doc["queue_depth_sweep"] = queue_records;
    doc["policies"] = policy_records;
    doc["layouts"] = layout_records;
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
