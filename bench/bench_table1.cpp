/// \file bench_table1.cpp
/// E1 — reproduces the paper's Table I: DRAM bandwidth utilization of the
/// 12.5 M-element triangular block interleaver, row-major vs optimized
/// mapping, write and read phase, on all ten device configurations.
///
/// The minimum of write/read per mapping (printed in the Min columns)
/// bounds the interleaver throughput (paper §I). Expected shape: row-major
/// write stays high, row-major read collapses on fast speed grades, the
/// optimized mapping stays >90 % everywhere.
///
/// The full grid (ten devices x two mappings) runs on the parallel sweep
/// engine; --threads shards it over the machine.
///
/// Usage: bench_table1 [--symbols N] [--max-bursts M] [--json FILE]
///                     [--markdown] [--check] [--threads T]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "perf/counters.hpp"
#include "sim/experiments.hpp"

// A symbol count the devices cannot hold throws std::invalid_argument
// from the sizing or the mapping.
int main(int argc, char** argv) try {
  tbi::CliParser cli("bench_table1", "reproduce Table I (bandwidth utilizations)");
  cli.add_option("symbols", "count", "interleaver symbols (0 = the paper's 12.5M)");
  cli.add_option("max-bursts", "count", "truncate phases for quick runs");
  cli.add_option("json", "file", "write config + wall time + rows as JSON");
  cli.add_option("markdown", "", "print GitHub markdown instead of ASCII");
  cli.add_option("check", "", "validate all command streams with the JEDEC checker");
  cli.add_option("threads", "T", "sweep worker threads (default: all cores)");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }

  tbi::sim::Table1Options options;
  options.total_symbols = cli.read_count<std::uint64_t>("symbols", 0, 0);
  options.max_bursts_per_phase = cli.read_count<std::uint64_t>("max-bursts", 0, 0);
  options.check_protocol = cli.has("check");
  options.threads = cli.read_count<unsigned>("threads", 0, 0);

  const auto wall_start = std::chrono::steady_clock::now();
  const auto rows = tbi::sim::run_table1(options);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_table1";
    tbi::Json config;
    config["symbols"] = options.total_symbols;
    config["max_bursts"] = options.max_bursts_per_phase;
    config["threads"] = static_cast<std::uint64_t>(options.threads);
    config["check"] = options.check_protocol;
    doc["config"] = config;
    doc["wall_seconds"] = wall_seconds;
    tbi::Json::Array out_rows;
    for (const auto& r : rows) {
      tbi::Json row;
      row["config"] = r.config;
      row["row_major_write"] = r.row_major_write;
      row["row_major_read"] = r.row_major_read;
      row["optimized_write"] = r.optimized_write;
      row["optimized_read"] = r.optimized_read;
      row["row_major_min"] = std::min(r.row_major_write, r.row_major_read);
      row["optimized_min"] = std::min(r.optimized_write, r.optimized_read);
      row["row_major_sched_ns_per_pick"] = r.row_major_ns_per_pick;
      row["optimized_sched_ns_per_pick"] = r.optimized_ns_per_pick;
      out_rows.push_back(row);
    }
    doc["rows"] = out_rows;
    tbi::Json perf;
    perf["process_allocations"] = tbi::perf::process_alloc_count();
    doc["perf"] = perf;
    if (!tbi::Json::write_file(cli.get("json", ""), doc)) {
      return 1;
    }
  }

  const auto table = tbi::sim::format_table1(
      rows, "Table I: DRAM bandwidth utilizations (12.5M-element triangular interleaver)");
  std::fputs(cli.has("markdown") ? table.render_markdown().c_str()
                                 : table.render().c_str(),
             stdout);

  // Min columns, the paper's bold numbers.
  tbi::TextTable mins("Throughput-limiting (minimum) utilization per mapping");
  mins.set_header({"DRAM Configuration", "Row-Major Min", "Optimized Min", "Gain"});
  for (const auto& r : rows) {
    const double rm = std::min(r.row_major_write, r.row_major_read);
    const double op = std::min(r.optimized_write, r.optimized_read);
    mins.add_row({r.config, tbi::TextTable::pct(rm), tbi::TextTable::pct(op),
                  tbi::TextTable::num(op / rm, 2) + "x"});
  }
  std::fputs(cli.has("markdown") ? mins.render_markdown().c_str()
                                 : mins.render().c_str(),
             stdout);
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
