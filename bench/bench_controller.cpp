/// \file bench_controller.cpp
/// Supplementary sweeps of controller design choices that the paper holds
/// fixed: scheduling policy, queue depth and the baseline's physical
/// address layout. These quantify how much of the row-major baseline's
/// behavior depends on controller quality rather than on the mapping —
/// and show that no realistic controller configuration rescues it.
///
/// Usage: bench_controller [--device NAME] [--max-bursts M] [--markdown]
///                         [--json FILE]
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "perf/counters.hpp"
#include "sim/runner.hpp"

namespace {

tbi::sim::InterleaverRun run_with(const tbi::dram::DeviceConfig& device,
                                  const std::string& mapping, unsigned queue,
                                  tbi::dram::ControllerConfig::Policy policy,
                                  std::uint64_t max_bursts) {
  tbi::sim::RunConfig rc;
  rc.device = device;
  rc.mapping_spec = mapping;
  rc.side = tbi::sim::paper_side_for(device);
  rc.max_bursts_per_phase = max_bursts;
  rc.controller.queue_depth = queue;
  rc.controller.policy = policy;
  return tbi::sim::run_interleaver(rc);
}

}  // namespace

int main(int argc, char** argv) {
  using Policy = tbi::dram::ControllerConfig::Policy;
  tbi::CliParser cli("bench_controller", "controller design-space sweeps");
  cli.add_option("device", "name", "device (default DDR4-3200)");
  cli.add_option("max-bursts", "count", "truncate phases for quick runs");
  cli.add_option("markdown", "", "print GitHub markdown");
  cli.add_option("json", "file", "write config + wall time + results as JSON");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  const std::string device_name = cli.get("device", "DDR4-3200");
  const auto* device = tbi::dram::find_config(device_name);
  if (device == nullptr) {
    std::fprintf(stderr, "error: unknown device '%s'\n", device_name.c_str());
    return 1;
  }
  const auto max_bursts = cli.read_count<std::uint64_t>("max-bursts", 0, 0);
  const bool md = cli.has("markdown");

  const auto wall_start = std::chrono::steady_clock::now();
  tbi::Json::Array queue_rows, policy_rows, layout_rows;
  std::uint64_t total_bursts = 0;

  {
    tbi::TextTable t("Queue depth sweep on " + device->name +
                     " (FR-FCFS, min utilization)");
    t.set_header({"Queue Depth", "Row-Major", "Optimized"});
    for (unsigned q : {1u, 4u, 16u, 64u, 256u}) {
      const auto rm = run_with(*device, "row-major", q, Policy::FrFcfs, max_bursts);
      const auto opt = run_with(*device, "optimized", q, Policy::FrFcfs, max_bursts);
      t.add_row({std::to_string(q), tbi::TextTable::pct(rm.min_utilization()),
                 tbi::TextTable::pct(opt.min_utilization())});
      total_bursts += rm.write.stats.bursts + rm.read.stats.bursts +
                      opt.write.stats.bursts + opt.read.stats.bursts;
      tbi::Json row;
      row["queue_depth"] = static_cast<std::uint64_t>(q);
      row["row_major_min_utilization"] = rm.min_utilization();
      row["optimized_min_utilization"] = opt.min_utilization();
      row["bursts"] = rm.total_bursts() + opt.total_bursts();
      row["row_major_sched_ns_per_pick"] = rm.sched_ns_per_pick();
      row["optimized_sched_ns_per_pick"] = opt.sched_ns_per_pick();
      row["row_major_candidates_per_pick"] = rm.candidates_per_pick();
      row["optimized_candidates_per_pick"] = opt.candidates_per_pick();
      queue_rows.push_back(row);
    }
    std::fputs(md ? t.render_markdown().c_str() : t.render().c_str(), stdout);
    std::puts("");
  }

  {
    tbi::TextTable t("Scheduling policy on " + device->name + " (min utilization)");
    t.set_header({"Policy", "Row-Major", "Optimized"});
    for (auto [policy, name] :
         {std::pair{Policy::Fcfs, "FCFS"}, std::pair{Policy::FrFcfs, "FR-FCFS"}}) {
      const auto rm = run_with(*device, "row-major", 64, policy, max_bursts);
      const auto opt = run_with(*device, "optimized", 64, policy, max_bursts);
      t.add_row({name, tbi::TextTable::pct(rm.min_utilization()),
                 tbi::TextTable::pct(opt.min_utilization())});
      total_bursts += rm.write.stats.bursts + rm.read.stats.bursts +
                      opt.write.stats.bursts + opt.read.stats.bursts;
      tbi::Json row;
      row["policy"] = name;
      row["row_major_min_utilization"] = rm.min_utilization();
      row["optimized_min_utilization"] = opt.min_utilization();
      row["bursts"] = rm.total_bursts() + opt.total_bursts();
      row["row_major_sched_ns_per_pick"] = rm.sched_ns_per_pick();
      row["optimized_sched_ns_per_pick"] = opt.sched_ns_per_pick();
      row["row_major_candidates_per_pick"] = rm.candidates_per_pick();
      row["optimized_candidates_per_pick"] = opt.candidates_per_pick();
      policy_rows.push_back(row);
    }
    std::fputs(md ? t.render_markdown().c_str() : t.render().c_str(), stdout);
    std::puts("");
  }

  {
    tbi::TextTable t("Row-major baseline: physical address layout on " +
                     device->name);
    t.set_header({"Layout", "Write", "Read", "Min"});
    for (const char* spec : {"row-major", "row-major/robaco", "row-major/rocoba",
                             "row-major/xor"}) {
      const auto run = run_with(*device, spec, 64, Policy::FrFcfs, max_bursts);
      t.add_row({run.mapping_name,
                 tbi::TextTable::pct(run.write.stats.utilization()),
                 tbi::TextTable::pct(run.read.stats.utilization()),
                 tbi::TextTable::pct(run.min_utilization())});
      total_bursts += run.write.stats.bursts + run.read.stats.bursts;
      tbi::Json row;
      row["layout"] = run.mapping_name;
      row["write_utilization"] = run.write.stats.utilization();
      row["read_utilization"] = run.read.stats.utilization();
      row["min_utilization"] = run.min_utilization();
      row["bursts"] = run.total_bursts();
      row["sched_ns_per_pick"] = run.sched_ns_per_pick();
      row["candidates_per_pick"] = run.candidates_per_pick();
      layout_rows.push_back(row);
    }
    std::fputs(md ? t.render_markdown().c_str() : t.render().c_str(), stdout);
  }

  if (cli.has("json")) {
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    tbi::Json doc;
    doc["bench"] = "bench_controller";
    tbi::Json config;
    config["device"] = device->name;
    config["max_bursts"] = max_bursts;
    doc["config"] = config;
    doc["wall_seconds"] = wall_seconds;
    doc["simulated_bursts"] = total_bursts;
    doc["bursts_per_second"] =
        wall_seconds > 0 ? static_cast<double>(total_bursts) / wall_seconds : 0.0;
    doc["queue_depth_sweep"] = queue_rows;
    doc["policies"] = policy_rows;
    doc["layouts"] = layout_rows;
    tbi::Json perf;
    perf["process_allocations"] = tbi::perf::process_alloc_count();
    doc["perf"] = perf;
    if (!tbi::Json::write_file(cli.get("json", ""), doc)) {
      return 1;
    }
  }
  return 0;
}
