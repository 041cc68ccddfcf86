/// \file experiment_runner.cpp
/// JSON-config-driven batch runner: describe a set of simulations in a
/// JSON file (devices, mappings, sizes, controller knobs) and get a JSON
/// result document back — the scriptable front door to the library for
/// parameter studies beyond the canned benches.
///
/// Both batches run on the sweep engine (sim/sweep.hpp): results are
/// collected by run index, so the document is identical for any thread
/// count.
///
/// Config format (all fields except a non-empty "runs" optional):
/// {
///   "symbols": 12500000,
///   "max_bursts": 40000,
///   "queue_depth": 64,
///   "runs": [
///     {"device": "DDR4-3200", "mapping": "optimized"},
///     {"device": "DDR4-3200", "mapping": "row-major", "refresh": "disabled"}
///   ]
/// }
/// A run's "refresh" is "default" (the device's own mode) or "disabled".
///
/// A config with a "fer" object instead (and none of the keys above)
/// drives the end-to-end FER sweep: axis arrays become the scenario grid,
/// scalars configure the pipeline template:
/// {
///   "fer": {
///     "interleavers": ["triangular", "two-stage"],
///     "channels": ["gilbert-elliott", "leo"],
///     "rs_ks": [223],
///     "frames": 8
///   }
/// }
///
/// Each FER result row is bench_fer's `--stable-json` row plus the
/// cell's `scenario` label. Every count in a config (frames, seeds, axis
/// entries, ...) must be a non-negative integer that fits its field, and
/// every key must be one of those read here. Any other value or key, like
/// every other failure, prints an `error:` line and exits 1. Both batches
/// check every run or cell (devices, mappings, interleavers, channels,
/// codes) before the first one starts. `--output` is written atomically
/// once the batch ends.
///
/// Usage: experiment_runner --config FILE [--output FILE]
///        experiment_runner --print-default-config
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "dram/standards.hpp"
#include "interleaver/streams.hpp"
#include "mapping/factory.hpp"
#include "perf/bench_compare.hpp"
#include "sim/pipeline.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

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

/// \p value of config key \p key as a count of type T, at least \p min.
/// A non-number, or a negative, fractional, non-finite or too large
/// value, throws std::invalid_argument naming the key; an unchecked cast
/// would turn "frames": -1 into 4,294,967,295 frames.
template <typename T>
T to_count(const tbi::Json& value, const std::string& key, T min) {
  // For an unsigned T the counts are exactly [0, 2^digits), a bound a
  // double holds without rounding.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double v = value.is_number() ? value.as_double() : std::nan("");
  if (!(v >= static_cast<double>(min) && v < limit && v == std::floor(v))) {
    throw std::invalid_argument(key + " must be an integer in [" + std::to_string(min) +
                                ", " + std::to_string(std::numeric_limits<T>::max()) +
                                "]");
  }
  return static_cast<T>(v);
}

/// Count \p key of config object \p obj; \p fallback when absent.
template <typename T>
T read_count(const tbi::Json& obj, const char* key, T fallback, T min = 0) {
  return obj.contains(key) ? to_count<T>(obj.at(key), key, min) : fallback;
}

/// Array \p key of \p obj, every entry a count; \p fallback when absent.
template <typename T>
std::vector<T> read_counts(const tbi::Json& obj, const char* key,
                           std::vector<T> fallback) {
  if (!obj.contains(key)) return fallback;
  std::vector<T> out;
  for (const auto& v : obj.at(key).as_array()) {
    out.push_back(
        to_count<T>(v, std::string(key) + "[" + std::to_string(out.size()) + "]", 0));
  }
  return out;
}

/// Throw for a key of config object \p obj that is not in \p known: a
/// misspelt key would otherwise be ignored without a word.
void check_keys(const tbi::Json& obj, std::initializer_list<std::string_view> known) {
  for (const auto& entry : obj.as_object()) {
    if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
      throw std::invalid_argument("unknown key '" + entry.first + "'");
    }
  }
}

/// The RunConfig of one bandwidth run. Throws for an unknown device,
/// mapping or refresh value ("default" or "disabled"), and for a symbol
/// count that burst_triangle_side refuses, so the batch can check every
/// run before the first one starts.
tbi::sim::RunConfig bandwidth_config(const tbi::Json& run_cfg, std::uint64_t symbols,
                                     std::uint64_t max_bursts, unsigned queue_depth) {
  check_keys(run_cfg, {"device", "mapping", "refresh", "check"});
  const std::string device_name = run_cfg.at("device").as_string();
  const auto* device = tbi::dram::find_config(device_name);
  if (device == nullptr) {
    throw std::invalid_argument("unknown device '" + device_name + "'");
  }
  tbi::sim::RunConfig rc;
  rc.device = *device;
  rc.mapping_spec = run_cfg.get_or("mapping", std::string("optimized"));
  rc.side = tbi::interleaver::burst_triangle_side(symbols, tbi::sim::kPaperSymbolBits,
                                                 device->burst_bytes);
  rc.max_bursts_per_phase = max_bursts;
  rc.controller.queue_depth = queue_depth;
  const std::string refresh = run_cfg.get_or("refresh", std::string("default"));
  if (refresh == "disabled") {
    rc.controller.use_device_default_refresh = false;
    rc.controller.refresh_mode = tbi::dram::RefreshMode::Disabled;
  } else if (refresh != "default") {
    throw std::invalid_argument("refresh must be \"default\" or \"disabled\", got '" +
                                refresh + "'");
  }
  rc.check_protocol = run_cfg.get_or("check", false);
  // Throws for an unknown mapping, as run_interleaver would.
  tbi::mapping::make_mapping(rc.mapping_spec, rc.device, rc.side);
  return rc;
}

/// One run of a bandwidth batch: deterministic DRAM phases only.
tbi::Json bandwidth_run(const tbi::sim::RunConfig& rc) {
  const tbi::sim::InterleaverRun run = tbi::sim::run_interleaver(rc);
  const auto phase_json = [burst_bytes = rc.device.burst_bytes](
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
  r["throughput_gbps"] = run.throughput_gbps(rc.device.burst_bytes);
  return r;
}

/// FER batch: the "fer" config object drives run_fer_sweep. Axis arrays
/// select the grid, scalar fields fill the pipeline template with the
/// bench_fer defaults.
tbi::Json run_fer_experiment(const tbi::Json& fer) {
  check_keys(fer, {"devices", "mapping_specs", "interleavers", "channels", "rs_ks",
                   "symbols_per_bursts", "threads", "seed", "frames", "side", "spb",
                   "fade_prob", "burst_symbols", "error_probability", "error_rate_bad"});
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
  grid.rs_ks = read_counts(fer, "rs_ks", grid.rs_ks);
  grid.symbols_per_bursts =
      read_counts(fer, "symbols_per_bursts", grid.symbols_per_bursts);

  tbi::sim::FerSweepOptions options;
  options.sweep.threads = read_count(fer, "threads", 0u);
  options.sweep.base_seed = read_count<std::uint64_t>(fer, "seed", 1);
  options.base.frames = read_count(fer, "frames", 8u, 1u);
  options.base.side = read_count<std::uint64_t>(fer, "side", 0);
  options.base.symbols_per_burst = read_count<std::uint64_t>(fer, "spb", 64, 1);
  options.base.fade_fraction = fer.get_or("fade_prob", 0.004);
  options.base.mean_burst_symbols = fer.get_or("burst_symbols", 300.0);
  options.base.error_probability = fer.get_or("error_probability", 2e-3);
  options.base.error_rate_bad = fer.get_or("error_rate_bad", 0.95);

  tbi::Json rows;
  for (const auto& r : tbi::sim::run_fer_sweep(grid, options)) {
    tbi::Json row =
        tbi::perf::without_host_timing(tbi::sim::fer_record(r.scenario, r.result));
    row["scenario"] = r.scenario.label();
    rows.push_back(row);
  }
  tbi::Json results;
  results["fer"] = rows;
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  tbi::CliParser cli("experiment_runner", "JSON-driven simulation batches");
  cli.add_option("config", "file", "JSON experiment description");
  cli.add_option("output", "file", "write results to file (default stdout)");
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

  std::string text;
  if (cli.has("config")) {
    std::ifstream f(cli.get("config", ""));
    if (!f) {
      std::fprintf(stderr, "error: cannot open config file '%s'\n",
                   cli.get("config", "").c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    text = ss.str();
  } else {
    text = kDefaultConfig;
  }

  tbi::Json results;
  try {
    const tbi::Json config = tbi::Json::parse(text);
    check_keys(config, {"symbols", "max_bursts", "queue_depth", "runs", "fer"});

    if (config.contains("fer")) {
      // The FER batch reads none of the bandwidth keys: refuse them
      // rather than drop them.
      for (const char* key : {"runs", "symbols", "max_bursts", "queue_depth"}) {
        if (config.contains(key)) {
          throw std::invalid_argument(std::string("a \"fer\" config takes no '") + key +
                                      "' key");
        }
      }
      results = run_fer_experiment(config.at("fer"));
    } else {
      const auto symbols = read_count<std::uint64_t>(config, "symbols", 12'500'000, 1);
      const auto max_bursts = read_count<std::uint64_t>(config, "max_bursts", 0);
      const auto queue_depth = read_count(config, "queue_depth", 64u, 1u);
      const tbi::Json::Array& runs = config.at("runs").as_array();
      if (runs.empty()) throw std::invalid_argument("\"runs\" is empty");
      // Every run is checked before the first one starts.
      std::vector<tbi::sim::RunConfig> run_configs;
      for (const auto& run_cfg : runs) {
        run_configs.push_back(bandwidth_config(run_cfg, symbols, max_bursts, queue_depth));
      }
      // The runs draw nothing, so the per-run seed goes unused.
      const auto records = tbi::sim::sweep_map(
          run_configs.size(), tbi::sim::SweepOptions{},
          [&](std::uint64_t index, std::uint64_t) {
            return bandwidth_run(run_configs[static_cast<std::size_t>(index)]);
          });
      tbi::Json runs_out;
      for (const auto& record : records) runs_out.push_back(record);
      results["runs"] = runs_out;
      results["symbols"] = symbols;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (cli.has("output")) {
    if (!tbi::Json::write_file(cli.get("output", ""), results)) {
      return 1;
    }
  } else {
    const std::string out = results.dump(2) + "\n";
    std::fputs(out.c_str(), stdout);
  }
  return 0;
}
