/// \file bench_energy.cpp
/// E7 — the paper's §I motivation: oversizing the DRAM to compensate for a
/// bad mapping "leads to higher costs and additional energy consumption."
/// Quantifies the energy per interleaved gigabyte for both mappings: the
/// row-major mapping burns more activates per byte *and* keeps the device
/// powered longer per interleaver block.
///
/// Usage: bench_energy [--symbols N] [--max-bursts M] [--markdown]
///                     [--json FILE]
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "interleaver/streams.hpp"
#include "perf/counters.hpp"
#include "sim/runner.hpp"

// A symbol count the devices cannot hold throws std::invalid_argument
// from the sizing or the mapping.
int main(int argc, char** argv) try {
  tbi::CliParser cli("bench_energy", "energy per interleaved GiB (paper §I)");
  cli.add_option("symbols", "count", "interleaver symbols (default 12.5M)");
  cli.add_option("max-bursts", "count", "truncate phases for quick runs");
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
  const auto symbols = cli.read_count<std::uint64_t>("symbols", 12'500'000, 1);
  const auto max_bursts = cli.read_count<std::uint64_t>("max-bursts", 0, 0);

  tbi::TextTable t("Energy per interleaved GiB (write + read phase)");
  t.set_header({"DRAM Configuration", "Mapping", "ACT/kBurst", "Energy",
                "nJ/B", "Overhead"});

  const auto wall_start = std::chrono::steady_clock::now();
  tbi::Json::Array rows;
  for (const auto& device : tbi::dram::standard_configs()) {
    double baseline_nj = 0;
    for (const std::string spec : {"optimized", "row-major"}) {
      tbi::sim::RunConfig rc;
      rc.device = device;
      rc.mapping_spec = spec;
      rc.side =
          tbi::interleaver::burst_triangle_side(symbols, 3, device.burst_bytes);
      rc.max_bursts_per_phase = max_bursts;
      const auto run = tbi::sim::run_interleaver(rc);

      const double total_nj =
          run.write.energy.total_nj() + run.read.energy.total_nj();
      const auto bursts = run.write.stats.bursts + run.read.stats.bursts;
      const double bytes = static_cast<double>(bursts) * device.burst_bytes;
      const double acts_per_kburst =
          1000.0 *
          static_cast<double>(run.write.stats.activates +
                              run.read.stats.activates) /
          static_cast<double>(bursts);

      if (spec == "optimized") baseline_nj = total_nj;
      char energy[32], npb[32], overhead[32];
      std::snprintf(energy, sizeof energy, "%.2f mJ", total_nj * 1e-6);
      std::snprintf(npb, sizeof npb, "%.3f", total_nj / bytes);
      std::snprintf(overhead, sizeof overhead, "%+.1f %%",
                    100.0 * (total_nj / baseline_nj - 1.0));
      t.add_row({spec == "optimized" ? device.name : "", spec,
                 tbi::TextTable::num(acts_per_kburst, 1), energy, npb,
                 overhead});

      tbi::Json row;
      row["device"] = device.name;
      row["mapping"] = spec;
      row["bursts"] = bursts;
      row["activates"] = run.write.stats.activates + run.read.stats.activates;
      row["energy_nj"] = total_nj;
      row["nj_per_byte"] = total_nj / bytes;
      row["energy_overhead_pct"] = 100.0 * (total_nj / baseline_nj - 1.0);
      row["sched_ns_per_pick"] = run.sched_ns_per_pick();
      rows.push_back(row);
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  std::fputs(cli.has("markdown") ? t.render_markdown().c_str() : t.render().c_str(),
             stdout);
  std::puts(
      "\nOverhead column: extra energy of the row-major mapping relative to\n"
      "the optimized mapping on the same device (same data moved).");

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_energy";
    tbi::Json config;
    config["symbols"] = symbols;
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
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
