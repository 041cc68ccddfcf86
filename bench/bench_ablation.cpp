/// \file bench_ablation.cpp
/// E5 — ablation of the three optimizations of §II on representative fast
/// speed grades. Shows why each ingredient is needed:
///   none        : square row-major placement (baseline pathology)
///   diag        : bank round-robin only — tCCD_S everywhere, but page
///                 misses still concentrate in one direction
///   tile        : page tiling only — misses split between directions, but
///                 consecutive accesses stay in one bank group
///   diag+tile   : both — misses of all banks collide at tile boundaries
///   full        : + bank-dependent column offset staggers those misses
///
/// Usage: bench_ablation [--device NAME] [--symbols N] [--max-bursts M]
///                       [--json FILE] [--threads T]
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "perf/counters.hpp"
#include "sim/experiments.hpp"

// A symbol count the devices cannot hold throws std::invalid_argument
// from the sizing or the mapping.
int main(int argc, char** argv) try {
  tbi::CliParser cli("bench_ablation", "per-optimization ablation (paper §II)");
  cli.add_option("device", "name", "single device (default: three fast grades)");
  cli.add_option("symbols", "count", "interleaver symbols (default 12.5M)");
  cli.add_option("max-bursts", "count", "truncate phases for quick runs");
  cli.add_option("json", "file", "write config + wall time + rows as JSON");
  cli.add_option("markdown", "", "print GitHub markdown");
  cli.add_option("threads", "T", "sweep worker threads (default: all cores)");
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
  const auto threads = cli.read_count<unsigned>("threads", 0, 0);

  std::vector<std::string> devices;
  if (cli.has("device")) {
    devices = {cli.get("device", "")};
  } else {
    devices = {"DDR4-3200", "LPDDR4-4266", "LPDDR5-8533"};
  }

  const auto wall_start = std::chrono::steady_clock::now();
  tbi::Json::Array device_docs;
  for (const auto& name : devices) {
    const auto* device = tbi::dram::find_config(name);
    if (device == nullptr) {
      std::fprintf(stderr, "error: unknown device '%s'\n", name.c_str());
      return 1;
    }
    const auto rows = tbi::sim::run_ablation(*device, symbols, max_bursts, threads);
    tbi::TextTable t("Optimization ablation on " + name);
    t.set_header({"Mapping Variant", "Write", "Read", "Min"});
    tbi::Json device_doc;
    device_doc["device"] = name;
    tbi::Json::Array out_rows;
    for (const auto& r : rows) {
      t.add_row({r.variant, tbi::TextTable::pct(r.write),
                 tbi::TextTable::pct(r.read), tbi::TextTable::pct(r.min())});
      tbi::Json row;
      row["variant"] = r.variant;
      row["write"] = r.write;
      row["read"] = r.read;
      row["min"] = r.min();
      row["sched_ns_per_pick"] = r.ns_per_pick;
      out_rows.push_back(row);
    }
    device_doc["rows"] = out_rows;
    device_docs.push_back(device_doc);
    std::fputs(cli.has("markdown") ? t.render_markdown().c_str()
                                   : t.render().c_str(),
               stdout);
    std::puts("");
  }

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_ablation";
    tbi::Json config;
    config["symbols"] = symbols;
    config["max_bursts"] = max_bursts;
    config["threads"] = static_cast<std::uint64_t>(threads);
    doc["config"] = config;
    doc["wall_seconds"] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    doc["devices"] = device_docs;
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
