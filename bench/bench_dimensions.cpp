/// \file bench_dimensions.cpp
/// E4 — the paper's robustness note (§III): "Results for other interleaver
/// dimensions are omitted ... because they differ only slightly." Sweeps
/// the interleaver size over two orders of magnitude on every device and
/// reports the throughput-limiting utilization of both mappings.
///
/// Usage: bench_dimensions [--device NAME] [--json FILE] [--markdown]
///                         [--threads T]
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "perf/counters.hpp"
#include "sim/experiments.hpp"

int main(int argc, char** argv) {
  tbi::CliParser cli("bench_dimensions", "interleaver size sweep (paper §III)");
  cli.add_option("device", "name", "single device, any known grade (default: all ten)");
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

  // One device by name (find_config knows the extended grades too), or
  // all ten of Table I.
  std::vector<const tbi::dram::DeviceConfig*> devices;
  if (cli.has("device")) {
    const std::string name = cli.get("device", "");
    devices.push_back(tbi::dram::find_config(name));
    if (devices.back() == nullptr) {
      std::fprintf(stderr, "error: unknown device '%s'\n", name.c_str());
      return 1;
    }
  } else {
    for (const auto& device : tbi::dram::standard_configs()) devices.push_back(&device);
  }
  const auto threads = cli.read_count<unsigned>("threads", 0, 0);

  const std::vector<std::uint64_t> sizes = {800'000, 3'000'000, 12'500'000,
                                            50'000'000};

  tbi::TextTable t("Interleaver dimension sweep (min utilization per mapping)");
  std::vector<std::string> header = {"DRAM Configuration", "Mapping"};
  for (auto s : sizes) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1fM sym", static_cast<double>(s) / 1e6);
    header.push_back(buf);
  }
  t.set_header(header);

  const auto wall_start = std::chrono::steady_clock::now();
  tbi::Json::Array device_docs;
  for (const auto* device : devices) {
    const auto rows = tbi::sim::run_dimension_sweep(*device, sizes, threads);
    std::vector<std::string> rm = {device->name, "row-major"};
    std::vector<std::string> opt = {"", "optimized"};
    tbi::Json device_doc;
    device_doc["device"] = device->name;
    tbi::Json::Array out_rows;
    for (const auto& r : rows) {
      rm.push_back(tbi::TextTable::pct(r.row_major_min));
      opt.push_back(tbi::TextTable::pct(r.optimized_min));
      tbi::Json row;
      row["total_symbols"] = r.total_symbols;
      row["side_bursts"] = r.side_bursts;
      row["row_major_min"] = r.row_major_min;
      row["optimized_min"] = r.optimized_min;
      row["row_major_sched_ns_per_pick"] = r.row_major_ns_per_pick;
      row["optimized_sched_ns_per_pick"] = r.optimized_ns_per_pick;
      out_rows.push_back(row);
    }
    device_doc["rows"] = out_rows;
    device_docs.push_back(device_doc);
    t.add_row(rm);
    t.add_row(opt);
  }

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_dimensions";
    tbi::Json config;
    config["device"] = cli.get("device", "");
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

  std::fputs(cli.has("markdown") ? t.render_markdown().c_str() : t.render().c_str(),
             stdout);
  std::puts(
      "\nExpected shape: per mapping the columns differ only slightly\n"
      "(paper §III), while row-major vs optimized differ greatly.");
  return 0;
}
