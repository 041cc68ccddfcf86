/// \file experiment_runner.cpp
/// JSON-config-driven batch runner: describe a set of simulations in a
/// JSON file (devices, mappings, sizes, controller knobs) and get a JSON
/// result document back — the scriptable front door to the library for
/// parameter studies beyond the canned benches.
///
/// Runs on the checkpointed sweep (sim/dsweep.hpp): with `--output`
/// every finished run is checkpointed to `<file>.manifest` and `--resume`
/// skips the runs already recorded there. Results are collected by run
/// index, so the document is identical for any thread count.
///
/// Config format (all fields except "runs" optional):
/// {
///   "symbols": 12500000,
///   "max_bursts": 40000,
///   "queue_depth": 64,
///   "runs": [
///     {"device": "DDR4-3200", "mapping": "optimized"},
///     {"device": "DDR4-3200", "mapping": "row-major", "refresh": "disabled"}
///   ]
/// }
///
/// A config with a "fer" object instead drives the end-to-end FER sweep:
/// axis arrays become the scenario grid (including the multi-link
/// "links" axis), scalars configure the pipeline template:
/// {
///   "fer": {
///     "interleavers": ["triangular", "two-stage"],
///     "channels": ["gilbert-elliott", "leo"],
///     "rs_ks": [223],
///     "links": [1, 4],
///     "frames": 8
///   }
/// }
///
/// Usage: experiment_runner --config FILE [--output FILE] [--resume]
///        experiment_runner --print-default-config
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "dram/standards.hpp"
#include "interleaver/streams.hpp"
#include "sim/dsweep.hpp"
#include "sim/pipeline.hpp"
#include "sim/runner.hpp"

namespace {

const char* kDefaultConfig = R"({
  "symbols": 12500000,
  "max_bursts": 40000,
  "queue_depth": 64,
  "runs": [
    {"device": "DDR4-3200", "mapping": "row-major"},
    {"device": "DDR4-3200", "mapping": "optimized"},
    {"device": "LPDDR4-4266", "mapping": "row-major"},
    {"device": "LPDDR4-4266", "mapping": "optimized", "refresh": "disabled"}
  ]
})";

volatile std::sig_atomic_t g_cancel = 0;

void handle_signal(int) { g_cancel = 1; }

/// One run of a bandwidth batch: deterministic DRAM phases only. \p job
/// mirrors the config file: {"symbols", "max_bursts", "queue_depth",
/// "runs": [...]}; \p index selects the run.
tbi::Json bandwidth_run(const tbi::Json& job, std::uint64_t index) {
  const tbi::Json& run_cfg = job.at("runs").as_array()[static_cast<std::size_t>(index)];
  const auto symbols = static_cast<std::uint64_t>(job.get_or("symbols", 12'500'000.0));

  const std::string device_name = run_cfg.at("device").as_string();
  const auto* device = tbi::dram::find_config(device_name);
  if (device == nullptr) {
    throw std::invalid_argument("unknown device '" + device_name + "'");
  }
  tbi::sim::RunConfig rc;
  rc.device = *device;
  rc.mapping_spec = run_cfg.get_or("mapping", std::string("optimized"));
  rc.side = tbi::interleaver::burst_triangle_side(symbols, 3, device->burst_bytes);
  rc.max_bursts_per_phase = static_cast<std::uint64_t>(job.get_or("max_bursts", 0.0));
  rc.controller.queue_depth = static_cast<unsigned>(job.get_or("queue_depth", 64.0));
  if (run_cfg.get_or("refresh", std::string("default")) == "disabled") {
    rc.controller.use_device_default_refresh = false;
    rc.controller.refresh_mode = tbi::dram::RefreshMode::Disabled;
  }
  rc.check_protocol = run_cfg.get_or("check", false);

  const tbi::sim::InterleaverRun run = tbi::sim::run_interleaver(rc);
  const auto phase_json = [burst_bytes = device->burst_bytes](
                              const tbi::sim::PhaseResult& p) {
    tbi::Json j;
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
  tbi::Json r;
  r["device"] = run.device_name;
  r["mapping"] = run.mapping_name;
  r["side_bursts"] = rc.side;
  r["write"] = phase_json(run.write);
  r["read"] = phase_json(run.read);
  r["min_utilization"] = run.min_utilization();
  r["throughput_gbps"] = run.throughput_gbps(device->burst_bytes);
  return r;
}

/// FER batch: the "fer" config object drives run_fer_sweep_dist. Axis
/// arrays select the grid, scalar fields fill the pipeline template with
/// the bench_fer defaults.
tbi::Json run_fer_experiment(const tbi::Json& fer, const tbi::sim::DsweepOptions& dist,
                             bool& interrupted) {
  tbi::sim::SweepGrid grid;
  const auto string_axis = [&fer](const char* key,
                                  std::vector<std::string> fallback) {
    if (!fer.contains(key)) return fallback;
    std::vector<std::string> out;
    for (const auto& v : fer.at(key).as_array()) out.push_back(v.as_string());
    return out;
  };
  grid.devices = string_axis("devices", {"LPDDR5-8533"});
  grid.mapping_specs = string_axis("mapping_specs", {"optimized"});
  grid.interleavers = string_axis("interleavers", {"triangular"});
  grid.channels = string_axis("channels", {"gilbert-elliott"});
  if (fer.contains("rs_ks")) {
    grid.rs_ks.clear();
    for (const auto& v : fer.at("rs_ks").as_array()) {
      grid.rs_ks.push_back(static_cast<unsigned>(v.as_double()));
    }
  }
  if (fer.contains("symbols_per_bursts")) {
    grid.symbols_per_bursts.clear();
    for (const auto& v : fer.at("symbols_per_bursts").as_array()) {
      grid.symbols_per_bursts.push_back(static_cast<std::uint64_t>(v.as_double()));
    }
  }
  if (fer.contains("links")) {
    grid.links.clear();
    for (const auto& v : fer.at("links").as_array()) {
      grid.links.push_back(static_cast<unsigned>(v.as_double()));
    }
  }

  tbi::sim::FerSweepOptions options;
  options.sweep.threads = static_cast<unsigned>(fer.get_or("threads", 0.0));
  options.sweep.base_seed = static_cast<std::uint64_t>(fer.get_or("seed", 1.0));
  options.base.frames = static_cast<unsigned>(fer.get_or("frames", 8.0));
  options.base.side = static_cast<std::uint64_t>(fer.get_or("side", 0.0));
  options.base.symbols_per_burst =
      static_cast<std::uint64_t>(fer.get_or("spb", 64.0));
  options.base.fade_fraction = fer.get_or("fade_prob", 0.004);
  options.base.mean_burst_symbols = fer.get_or("burst_symbols", 300.0);
  options.base.error_probability = fer.get_or("error_probability", 2e-3);
  options.base.error_rate_bad = fer.get_or("error_rate_bad", 0.95);
  options.base.link_phase_symbols =
      static_cast<std::uint64_t>(fer.get_or("link_phase_symbols", 0.0));

  const auto sweep = tbi::sim::run_fer_sweep_dist(grid, options, dist);
  interrupted = sweep.stats.interrupted;

  tbi::Json results;
  tbi::Json rows;
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    if (!sweep.done[i]) continue;
    const auto& cell = sweep.cells[i];
    tbi::Json row;
    row["scenario"] = cell.scenario.label();
    if (cell.scenario.links != 0) {
      row["links"] = static_cast<std::uint64_t>(cell.scenario.links);
    }
    row["frame_symbols"] = cell.result.frame_symbols;
    row["code_words"] = cell.result.code_words;
    row["word_errors"] = cell.result.word_errors;
    row["frame_errors"] = cell.result.frame_errors;
    row["channel_symbol_errors"] = cell.result.channel_symbol_errors;
    row["wer"] = cell.result.word_error_rate();
    row["fer"] = cell.result.frame_error_rate();
    if (cell.result.dram_ran) {
      row["dram_throughput_gbps"] = cell.result.dram_throughput_gbps;
      row["dram_bursts"] = cell.dram_bursts;
    }
    rows.push_back(row);
  }
  results["fer"] = rows;
  if (interrupted) results["interrupted"] = true;
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  tbi::CliParser cli("experiment_runner", "JSON-driven simulation batches");
  cli.add_option("config", "file", "JSON experiment description");
  cli.add_option("output", "file", "write results to file (default stdout)");
  cli.add_option("resume", "", "skip runs recorded in the --output manifest");
  cli.add_option("print-default-config", "", "emit a starter config and exit");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  if (cli.has("print-default-config")) {
    std::puts(kDefaultConfig);
    return 0;
  }
  if (cli.has("resume") && !cli.has("output")) {
    std::fprintf(stderr, "error: --resume needs --output (the manifest lives "
                         "next to the output file)\n");
    return 1;
  }

  std::string text;
  if (cli.has("config")) {
    std::ifstream f(cli.get("config", ""));
    if (!f) {
      std::fprintf(stderr, "cannot open config file\n");
      return 1;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    text = ss.str();
  } else {
    text = kDefaultConfig;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  tbi::Json results;
  tbi::sim::DsweepOptions dist;
  bool interrupted = false;
  try {
    const tbi::Json config = tbi::Json::parse(text);
    dist.resume = cli.has("resume");
    if (cli.has("output")) {
      dist.manifest_path = cli.get("output", "") + ".manifest";
    }
    dist.cancel = &g_cancel;
    dist.faults = tbi::sim::FaultSpec::from_env();

    if (config.contains("fer")) {
      results = run_fer_experiment(config.at("fer"), dist, interrupted);
    } else {
      // Canonical job config for the "bandwidth" sweep: built from parsed
      // values, never from the raw file text, so whitespace/key-order
      // changes in the config file don't invalidate a resume manifest.
      tbi::Json job;
      job["symbols"] =
          static_cast<std::uint64_t>(config.get_or("symbols", 12'500'000.0));
      job["max_bursts"] =
          static_cast<std::uint64_t>(config.get_or("max_bursts", 0.0));
      job["queue_depth"] =
          static_cast<std::uint64_t>(config.get_or("queue_depth", 64.0));
      job["runs"] = config.at("runs");
      const auto cells =
          static_cast<std::uint64_t>(config.at("runs").as_array().size());

      const auto run = tbi::sim::dsweep_run(
          "bandwidth", job, cells, 0, dist, [&job](std::uint64_t index, std::uint64_t) {
            return bandwidth_run(job, index);
          });
      interrupted = run.stats.interrupted;

      tbi::Json runs_out;
      for (std::uint64_t i = 0; i < cells; ++i) {
        if (run.done[i]) runs_out.push_back(run.records[i]);
      }
      results["runs"] = runs_out;
      results["symbols"] = job.at("symbols");
      if (interrupted) results["interrupted"] = true;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "experiment failed: %s\n", e.what());
    return 1;
  }

  if (cli.has("output")) {
    if (!tbi::Json::write_file(cli.get("output", ""), results)) {
      return 1;
    }
    if (!interrupted && !dist.manifest_path.empty()) {
      std::remove(dist.manifest_path.c_str());
    }
  } else {
    const std::string out = results.dump(2) + "\n";
    std::fputs(out.c_str(), stdout);
  }
  if (interrupted) {
    std::fprintf(stderr, "interrupted: partial results%s\n",
                 cli.has("output") ? "; rerun with --resume to finish" : "");
    return 130;
  }
  return 0;
}
