/// \file bench_streaming.cpp
/// Extension experiment (beyond the paper's separate-phase evaluation):
/// continuous double-buffered operation — block k+1 is written while
/// block k is read from a disjoint row region, requests interleaved 1:1.
/// The paper argues min(write, read) bounds this mixed rate; here we
/// measure the mixed rate directly, including the read/write bus
/// turnaround penalties the separate phases never see, and compare it to
/// that bound.
///
/// Usage: bench_streaming [--max-bursts M] [--markdown] [--json FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "perf/counters.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  tbi::CliParser cli("bench_streaming",
                     "continuous write+read operation vs the min(phase) bound");
  cli.add_option("max-bursts", "count", "truncate each walk (default full)");
  cli.add_option("markdown", "", "print GitHub markdown");
  cli.add_option("json", "file", "write config + wall time + records as JSON");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  const auto max_bursts = cli.read_count<std::uint64_t>("max-bursts", 0, 0);

  tbi::TextTable t("Continuous operation (1:1 mixed write/read)");
  t.set_header({"DRAM Configuration", "Mapping", "min(W,R) bound", "Streaming",
                "Turnaround cost"});

  const auto wall_start = std::chrono::steady_clock::now();
  tbi::Json::Array rows;
  for (const auto& device : tbi::dram::standard_configs()) {
    for (const std::string spec : {"row-major", "optimized"}) {
      tbi::sim::RunConfig rc;
      rc.device = device;
      rc.mapping_spec = spec;
      rc.side = tbi::sim::paper_side_for(device);
      rc.max_bursts_per_phase = max_bursts;

      const auto phased = tbi::sim::run_interleaver(rc);
      const auto streaming = tbi::sim::run_streaming(rc);
      const double bound = phased.min_utilization();
      const double mixed = streaming.stats.utilization();

      t.add_row({spec == "row-major" ? device.name : "", spec,
                 tbi::TextTable::pct(bound), tbi::TextTable::pct(mixed),
                 tbi::TextTable::pct(std::max(0.0, bound - mixed))});

      tbi::Json row;
      row["device"] = device.name;
      row["mapping"] = spec;
      row["min_phase_utilization"] = bound;
      row["streaming_utilization"] = mixed;
      row["bursts"] = streaming.stats.bursts;
      row["activates"] = streaming.stats.activates;
      row["row_hit_rate"] = streaming.stats.row_hit_rate();
      row["sched_ns_per_pick"] = streaming.stats.ns_per_pick();
      row["candidates_per_pick"] = streaming.stats.candidates_per_pick();
      rows.push_back(row);
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  std::fputs(cli.has("markdown") ? t.render_markdown().c_str() : t.render().c_str(),
             stdout);
  std::puts(
      "\nTwo effects are visible: mixed traffic pays bus-turnaround and\n"
      "write-to-read penalties (optimized mapping: a few %% below the\n"
      "min(W,R) bound), while for the row-major mapping the fast write\n"
      "stream can fill bubbles of the crippled read stream and lift the\n"
      "mixed utilization above min(W,R) — without changing the verdict:\n"
      "the optimized mapping sustains the higher block rate everywhere.");

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_streaming";
    tbi::Json config;
    config["max_bursts"] = max_bursts;
    doc["config"] = config;
    doc["wall_seconds"] = wall_seconds;
    doc["records"] = rows;
    tbi::Json perf;
    perf["process_allocations"] = tbi::perf::process_alloc_count();
    doc["perf"] = perf;
    if (!tbi::Json::write_file(cli.get("json", ""), doc)) {
      return 1;
    }
  }
  return 0;
}
