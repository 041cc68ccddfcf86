/// \file dsweep_kernels.cpp
/// Built-in dsweep kernels. Each is a pure function of (job JSON, cell
/// index, seed) so it can run identically on a parent thread or inside a
/// re-exec'd worker process — anything the cell needs must be
/// reconstructible from the job config (devices travel by standard-config
/// name, never by value).
#include <mutex>
#include <stdexcept>
#include <string>

#include "channel/channel.hpp"
#include "dram/standards.hpp"
#include "interleaver/streams.hpp"
#include "sim/dsweep.hpp"
#include "sim/runner.hpp"

namespace tbi::sim {

namespace {

std::vector<std::string> string_axis(const Json& grid, const std::string& key) {
  std::vector<std::string> out;
  for (const auto& v : grid.at(key).as_array()) out.push_back(v.as_string());
  return out;
}

SweepGrid grid_from_json(const Json& g) {
  SweepGrid grid;
  grid.devices = string_axis(g, "devices");
  grid.mapping_specs = string_axis(g, "mapping_specs");
  grid.interleavers = string_axis(g, "interleavers");
  grid.channels = string_axis(g, "channels");
  grid.rs_ks.clear();
  for (const auto& v : g.at("rs_ks").as_array()) {
    grid.rs_ks.push_back(static_cast<unsigned>(v.as_double()));
  }
  grid.symbols_per_bursts.clear();
  for (const auto& v : g.at("symbols_per_bursts").as_array()) {
    grid.symbols_per_bursts.push_back(static_cast<std::uint64_t>(v.as_double()));
  }
  // Absent in pre-links job configs (checkpoint manifests written before
  // the axis existed resume fine): default to the single "inherit" cell.
  if (g.contains("links")) {
    grid.links.clear();
    for (const auto& v : g.at("links").as_array()) {
      grid.links.push_back(static_cast<unsigned>(v.as_double()));
    }
  }
  return grid;
}

PipelineConfig base_from_json(const Json& b) {
  PipelineConfig base;
  base.interleaver = b.at("interleaver").as_string();
  base.channel = b.at("channel").as_string();
  base.rs_n = static_cast<unsigned>(b.at("rs_n").as_double());
  base.rs_k = static_cast<unsigned>(b.at("rs_k").as_double());
  base.frames = static_cast<unsigned>(b.at("frames").as_double());
  base.side = static_cast<std::uint64_t>(b.at("side").as_double());
  base.symbols_per_burst =
      static_cast<std::uint64_t>(b.at("symbols_per_burst").as_double());
  base.error_probability = b.at("error_probability").as_double();
  base.fade_fraction = b.at("fade_fraction").as_double();
  base.mean_burst_symbols = b.at("mean_burst_symbols").as_double();
  base.error_rate_bad = b.at("error_rate_bad").as_double();
  base.links = static_cast<unsigned>(b.get_or("links", 1.0));
  base.link_phase_symbols =
      static_cast<std::uint64_t>(b.get_or("link_phase_symbols", 0.0));
  base.run_dram = b.at("run_dram").as_bool();
  base.mapping_spec = b.at("mapping_spec").as_string();
  base.dram_max_bursts_per_phase =
      static_cast<std::uint64_t>(b.at("dram_max_bursts_per_phase").as_double());
  base.check_protocol = b.at("check_protocol").as_bool();
  const std::string device_name = b.at("device").as_string();
  if (!device_name.empty()) {
    const auto* device = dram::find_config(device_name);
    if (device == nullptr) {
      throw std::invalid_argument("fer kernel: unknown base device '" +
                                  device_name + "'");
    }
    base.device = *device;
  }
  return base;
}

/// "fer": one cell of a FER sweep. Mirrors run_fer_sweep's per-cell body
/// exactly (fer_cell_config is shared), so the distributed path produces
/// byte-identical records.
///
/// When the job config carries frame_slices = S > 1, the index space is
/// expanded to grid.size() x S and this kernel computes one intra-frame
/// channel slice of cell index/S instead (run_pipeline_slice); the driver
/// merges the S slice records with combine_pipeline_slices. Every slice
/// of a cell must run under the cell's own seed, so slice mode recomputes
/// it from the job-carried base_seed rather than using the driver's
/// expanded-index seed.
Json fer_kernel(const Json& job, std::uint64_t index, std::uint64_t seed) {
  if (job.get_or("channel_draws", 0.0) != channel::kDrawRevision) {
    throw std::invalid_argument(
        "fer kernel: job config has channel-draw revision " +
        (job.contains("channel_draws") ? job.at("channel_draws").dump() : "none") +
        ", this binary draws revision " + std::to_string(channel::kDrawRevision) +
        "; its records would mix two channel samplers");
  }
  const SweepGrid grid = grid_from_json(job.at("grid"));
  const PipelineConfig base = base_from_json(job.at("base"));
  const auto num_slices =
      static_cast<unsigned>(job.get_or("frame_slices", 1.0));
  std::uint64_t cell = index;
  unsigned slice = 0;
  std::uint64_t cell_seed = seed;
  if (num_slices > 1) {
    cell = index / num_slices;
    slice = static_cast<unsigned>(index % num_slices);
    cell_seed = job_seed(std::stoull(job.at("base_seed").as_string()), cell);
  }
  const Scenario scenario = grid.cell(cell);
  if (base.rs_n > 255 || scenario.rs_k == 0 || scenario.rs_k >= base.rs_n ||
      (base.rs_n - scenario.rs_k) % 2 != 0) {
    throw std::invalid_argument("fer kernel: invalid RS(n, k)");
  }
  const PipelineConfig config = fer_cell_config(base, scenario, cell_seed);
  if (num_slices > 1 && pipeline_streams(config)) {
    return fer_slice_to_json(scenario,
                             run_pipeline_slice(config, slice, num_slices));
  }
  if (num_slices > 1 && slice != 0) {
    // Row-aligned cells don't split inside a frame; their slice 0
    // computes the whole cell and the remaining slices are placeholders
    // the merge step skips.
    Json j;
    j["skipped"] = true;
    return j;
  }
  return fer_cell_to_json(scenario, run_pipeline(config));
}

/// "bandwidth": one run of an experiment_runner batch. Deterministic DRAM
/// phases only — the seed is unused. Job config mirrors the runner's file
/// format: {"symbols", "max_bursts", "queue_depth", "runs": [...]}; the
/// cell index selects the run.
Json bandwidth_kernel(const Json& job, std::uint64_t index, std::uint64_t) {
  const auto& runs = job.at("runs").as_array();
  if (index >= runs.size()) {
    throw std::invalid_argument("bandwidth kernel: run index out of range");
  }
  const Json& run_cfg = runs[static_cast<std::size_t>(index)];
  const auto symbols = static_cast<std::uint64_t>(job.get_or("symbols", 12'500'000.0));

  const std::string device_name = run_cfg.at("device").as_string();
  const auto* device = dram::find_config(device_name);
  if (device == nullptr) {
    throw std::invalid_argument("bandwidth kernel: unknown device '" +
                                device_name + "'");
  }
  RunConfig rc;
  rc.device = *device;
  rc.mapping_spec = run_cfg.get_or("mapping", std::string("optimized"));
  rc.side = interleaver::burst_triangle_side(symbols, 3, device->burst_bytes);
  rc.max_bursts_per_phase = static_cast<std::uint64_t>(job.get_or("max_bursts", 0.0));
  rc.controller.queue_depth =
      static_cast<unsigned>(job.get_or("queue_depth", 64.0));
  if (run_cfg.get_or("refresh", std::string("default")) == "disabled") {
    rc.controller.use_device_default_refresh = false;
    rc.controller.refresh_mode = dram::RefreshMode::Disabled;
  }
  rc.check_protocol = run_cfg.get_or("check", false);

  const InterleaverRun run = run_interleaver(rc);
  const auto phase_json = [burst_bytes = device->burst_bytes](const PhaseResult& p) {
    Json j;
    j["utilization"] = p.stats.utilization();
    j["bandwidth_gbps"] = p.stats.bandwidth_gbps(burst_bytes);
    j["bursts"] = p.stats.bursts;
    j["activates"] = p.stats.activates;
    j["row_hit_rate"] = p.stats.row_hit_rate();
    j["refreshes"] = p.stats.refreshes;
    j["elapsed_us"] = static_cast<double>(p.stats.elapsed()) / 1e6;
    j["energy_nj"] = p.energy.total_nj();
    return j;
  };
  Json r;
  r["device"] = run.device_name;
  r["mapping"] = run.mapping_name;
  r["side_bursts"] = rc.side;
  r["write"] = phase_json(run.write);
  r["read"] = phase_json(run.read);
  r["min_utilization"] = run.min_utilization();
  r["throughput_gbps"] = run.throughput_gbps(device->burst_bytes);
  return r;
}

}  // namespace

void dsweep_register_builtin_kernels() {
  static std::once_flag once;
  std::call_once(once, [] {
    dsweep_register_kernel("fer", fer_kernel);
    dsweep_register_kernel("bandwidth", bandwidth_kernel);
  });
}

}  // namespace tbi::sim
