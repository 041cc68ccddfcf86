/// \file bench_refresh.cpp
/// E3 — the paper's refresh claim (§III): the missing percentages of the
/// optimized mapping are caused by refresh; disabling refresh (legal while
/// the interleaver data lifetime stays below the retention time) lifts the
/// optimized mapping above 99 % on every configuration.
///
/// Prints optimized-mapping utilizations with the device-default refresh
/// mode and with refresh disabled, plus the interleaver data lifetime so
/// the legality condition (lifetime < 32..64 ms retention) can be checked.
///
/// Usage: bench_refresh [--symbols N] [--max-bursts M] [--markdown]
///                      [--json FILE]
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
  tbi::CliParser cli("bench_refresh", "refresh on/off ablation (paper §III)");
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

  tbi::TextTable t(
      "Optimized mapping: device-default refresh vs refresh disabled");
  t.set_header({"DRAM Configuration", "Refresh Mode", "Write", "Read",
                "Write (no REF)", "Read (no REF)", "Data Lifetime"});

  const auto wall_start = std::chrono::steady_clock::now();
  tbi::Json::Array rows;
  for (const auto& device : tbi::dram::standard_configs()) {
    tbi::sim::RunConfig rc;
    rc.device = device;
    rc.mapping_spec = "optimized";
    rc.side = tbi::interleaver::burst_triangle_side(symbols, 3, device.burst_bytes);
    rc.max_bursts_per_phase = max_bursts;

    const auto with_ref = tbi::sim::run_interleaver(rc);
    rc.controller.use_device_default_refresh = false;
    rc.controller.refresh_mode = tbi::dram::RefreshMode::Disabled;
    const auto no_ref = tbi::sim::run_interleaver(rc);

    // Data lifetime = wall time between writing the first burst and
    // reading the last one ~ both phases back to back.
    const double lifetime_ms =
        (no_ref.read.stats.end - no_ref.write.stats.start) / 1e9;
    char lifetime[32];
    std::snprintf(lifetime, sizeof lifetime, "%.2f ms", lifetime_ms);

    t.add_row({device.name, to_string(device.default_refresh),
               tbi::TextTable::pct(with_ref.write.stats.utilization()),
               tbi::TextTable::pct(with_ref.read.stats.utilization()),
               tbi::TextTable::pct(no_ref.write.stats.utilization()),
               tbi::TextTable::pct(no_ref.read.stats.utilization()), lifetime});

    tbi::Json row;
    row["device"] = device.name;
    row["refresh_mode"] = to_string(device.default_refresh);
    row["write_utilization"] = with_ref.write.stats.utilization();
    row["read_utilization"] = with_ref.read.stats.utilization();
    row["write_utilization_no_ref"] = no_ref.write.stats.utilization();
    row["read_utilization_no_ref"] = no_ref.read.stats.utilization();
    row["refreshes"] = with_ref.write.stats.refreshes + with_ref.read.stats.refreshes;
    row["lifetime_ms"] = lifetime_ms;
    rows.push_back(row);
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  std::fputs(cli.has("markdown") ? t.render_markdown().c_str() : t.render().c_str(),
             stdout);
  std::puts(
      "\nDisabling refresh is legal while the data lifetime stays below the\n"
      "DRAM retention period (32..64 ms, paper §III).");

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_refresh";
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
