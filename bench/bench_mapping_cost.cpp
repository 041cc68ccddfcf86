/// \file bench_mapping_cost.cpp
/// E6 — the paper's hardware-complexity claim (§II): the mapping rules
/// "only consist of additions, logical shifts and bitwise operations,
/// which enables a hardware implementation with low complexity."
///
/// Software proxy for that claim: the host time per address of
/// IndexMapping::map_run over the triangle's write-phase rows, in runs of
/// at most TriangleWalk::kRun positions: the call the phase streams make.
/// The walk advances once per run, so its index steps stay out of the
/// figure. The optimized mapping must stay within a small factor of the
/// trivial row-major linearization, i.e. nothing in it needs division
/// trees, tables or iteration.
///
/// Usage: bench_mapping_cost [--json FILE]
///
/// `--json FILE` also writes the cases in the shared bench JSON schema
/// (config + records + perf).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "interleaver/streams.hpp"
#include "mapping/factory.hpp"
#include "perf/counters.hpp"

namespace {

using tbi::dram::find_config;

constexpr std::uint64_t kSide = 383;  // paper geometry on 64 B bursts
constexpr std::uint64_t kIters = 2'000'000;

volatile std::uint64_t g_sink = 0;  ///< keeps the timing loops honest

/// ns per address over \p iters positions of the write-phase walk of a
/// side \p side triangle (row by row, wrapping at the end), mapped by
/// map_run in runs of at most TriangleWalk::kRun positions within a row.
double time_mapping_ns(const char* spec, const tbi::dram::DeviceConfig& dev,
                       std::uint64_t side, std::uint64_t iters) {
  const auto m = tbi::mapping::make_mapping(spec, dev, side);
  std::array<tbi::dram::Address, tbi::interleaver::TriangleWalk::kRun> run;
  std::uint64_t i = 0, j = 0, acc = 0;
  const std::uint64_t start = tbi::perf::now_ns();
  for (std::uint64_t done = 0; done < iters;) {
    const std::size_t count =
        std::min({std::uint64_t{run.size()}, side - i - j, iters - done});
    m->map_run(i, j, true, count, run.data());
    for (std::size_t k = 0; k < count; ++k) {
      acc += run[k].bank + run[k].row + run[k].column;
    }
    done += count;
    j += count;
    if (j == side - i) {
      j = 0;
      i = i + 1 == side ? 0 : i + 1;
    }
  }
  const std::uint64_t ns = tbi::perf::now_ns() - start;
  g_sink = acc;
  return static_cast<double>(ns) / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  tbi::CliParser cli("bench_mapping_cost", "address-mapping cost (paper §II)");
  cli.add_option("json", "file", "write config + wall time + cases as JSON");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  const auto& ddr4 = *find_config("DDR4-3200");

  tbi::TextTable t("Address-mapping cost (host ns per address, map_run over row runs)");
  t.set_header({"Case", "Device", "Mapping", "Side", "ns/address"});
  const auto wall_start = std::chrono::steady_clock::now();
  tbi::Json::Array rows;
  const auto add_row = [&](const std::string& label, const char* spec,
                           const tbi::dram::DeviceConfig& dev, std::uint64_t side,
                           std::uint64_t iters) {
    time_mapping_ns(spec, dev, side, iters / 4);  // warm-up, untimed
    const double ns = time_mapping_ns(spec, dev, side, iters);
    t.add_row({label, dev.name, spec, std::to_string(side), tbi::TextTable::num(ns)});
    tbi::Json row;
    row["case"] = label;
    row["device"] = dev.name;
    row["mapping"] = spec;
    row["side"] = side;
    row["map_ns"] = ns;
    rows.push_back(row);
  };
  add_row("row-major", "row-major", ddr4, kSide, kIters);
  add_row("optimized", "optimized", ddr4, kSide, kIters);
  for (const char* spec : {"optimized/none", "optimized/diag", "optimized/tile",
                           "optimized/diag+tile"}) {
    add_row(std::string("ablation:") + spec, spec, ddr4, kSide, kIters);
  }
  for (const auto& dev : tbi::dram::standard_configs()) {
    add_row(std::string("device:") + dev.name, "optimized", dev, kSide, kIters / 4);
  }
  // Whole write phases of LPDDR5-8533's paper triangle, side 541 (146,611
  // addresses), walked four times: what a streaming hardware block would
  // have to sustain per burst.
  constexpr std::uint64_t kFullSide = 541;
  add_row("full-phase", "optimized", *find_config("LPDDR5-8533"), kFullSide,
          4 * (kFullSide * (kFullSide + 1) / 2));
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  if (cli.has("json")) {
    tbi::Json doc;
    doc["bench"] = "bench_mapping_cost";
    tbi::Json config;
    config["side"] = kSide;
    config["iterations"] = kIters;
    doc["config"] = config;
    doc["wall_seconds"] = wall_seconds;
    doc["records"] = rows;
    tbi::Json perf;
    perf["process_allocations"] = tbi::perf::process_alloc_count();
    doc["perf"] = perf;
    if (!tbi::Json::write_file(cli.get("json", ""), doc)) return 1;
  }

  std::fputs(t.render().c_str(), stdout);
  std::puts(
      "\nExpected shape: every optimized case within a small factor of\n"
      "row-major. The ablation corners optimized/none, optimized/diag and\n"
      "optimized/tile have no map_run of their own: they pay one virtual\n"
      "map() call per address.");
  return 0;
}
