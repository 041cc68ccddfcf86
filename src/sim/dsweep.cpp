#include "sim/dsweep.hpp"

#include <mutex>
#include <stdexcept>

#include "channel/channel.hpp"
#include "sim/manifest.hpp"

namespace tbi::sim {

Json DsweepStats::to_json() const {
  Json j;
  j["resumed_cells"] = resumed_cells;
  j["interrupted"] = interrupted;
  return j;
}

DsweepResult dsweep_run(const std::string& name, const Json& job, std::uint64_t cells,
                        std::uint64_t base_seed, const DsweepOptions& options,
                        const DsweepCell& fn) {
  // Validates the shard spec (throws on index >= count / count == 0).
  const ShardRange range = shard_range(cells, options.shard_index, options.shard_count);

  DsweepResult result;
  result.records.resize(cells);
  result.done.assign(cells, false);

  const std::string fingerprint = sweep_fingerprint(name, job, cells, base_seed);
  ManifestWriter manifest;
  std::uint64_t done_count = 0;
  if (!options.manifest_path.empty()) {
    bool fresh = true;
    if (options.resume) {
      const auto load = load_manifest(options.manifest_path, fingerprint);
      if (load.found && !load.fingerprint_ok) {
        throw std::runtime_error(
            "dsweep: manifest '" + options.manifest_path +
            "' was written by a different run (grid/seed/config changed); "
            "delete it or drop --resume");
      }
      if (load.found) {
        fresh = false;
        for (const auto& e : load.entries) {
          // Cells outside this shard's range (a manifest written under a
          // different --shard split) are ignored: this run only owns and
          // only reports its own range.
          if (range.contains(e.cell) && !result.done[e.cell]) {
            result.done[e.cell] = true;
            result.records[e.cell] = e.record;
            ++done_count;
            ++result.stats.resumed_cells;
          }
        }
      }
    }
    // A manifest that cannot be opened disables checkpointing (the error
    // is printed) but never blocks the sweep itself.
    manifest.open(options.manifest_path, fingerprint, fresh, options.shard_index,
                  options.shard_count);
    if (options.progress && done_count > 0) {
      options.progress({done_count, range.size()});
    }
  }

  std::vector<std::uint64_t> todo;
  for (std::uint64_t i = range.begin; i < range.end; ++i) {
    if (!result.done[i]) todo.push_back(i);
  }

  // Commits, the manifest, progress and the stop decision are serialized
  // under one mutex, so the cancel flag is only ever read there too.
  std::mutex mutex;
  bool stop = false;
  const auto stopping = [&] {
    if (options.cancel != nullptr && *options.cancel != 0) stop = true;
    return stop;
  };
  SweepOptions sweep;
  sweep.threads = options.threads;
  // sweep_map's own seeds key on the position in `todo`; a cell's seed
  // keys on its grid index, whatever was resumed or sharded away.
  auto computed = sweep_map(todo.size(), sweep, [&](std::uint64_t j, std::uint64_t) {
    const std::uint64_t cell = todo[j];
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (stopping()) return Json();
    }
    Json record = fn(cell, job_seed(base_seed, cell));
    std::lock_guard<std::mutex> lock(mutex);
    result.done[cell] = true;
    ++done_count;
    if (manifest.is_open()) manifest.append(cell, record);
    if (options.progress) options.progress({done_count, range.size()});
    if (done_count - result.stats.resumed_cells == options.faults.abort_after) {
      stop = true;  // injected preemption
    }
    return record;
  });
  for (std::size_t j = 0; j < todo.size(); ++j) {
    if (result.done[todo[j]]) result.records[todo[j]] = std::move(computed[j]);
  }
  result.stats.interrupted = done_count < range.size();
  return result;
}

DsweepResult dsweep_merge_shards(const std::string& name, const Json& job,
                                 std::uint64_t cells, std::uint64_t base_seed,
                                 const std::vector<std::string>& manifest_paths) {
  const std::string fingerprint = sweep_fingerprint(name, job, cells, base_seed);
  DsweepResult result;
  result.records.resize(cells);
  result.done.assign(cells, false);

  std::uint64_t merged = 0;
  for (const auto& path : manifest_paths) {
    const auto load = load_manifest(path, fingerprint);
    if (!load.found) {
      throw std::runtime_error("dsweep: cannot read shard manifest '" + path + "'");
    }
    if (!load.fingerprint_ok) {
      throw std::runtime_error("dsweep: shard manifest '" + path +
                               "' was written by a different run "
                               "(grid/seed/config changed)");
    }
    for (const auto& e : load.entries) {
      if (e.cell < cells && !result.done[e.cell]) {
        result.done[e.cell] = true;
        result.records[e.cell] = e.record;
        ++merged;
      }
    }
  }
  if (merged < cells) {
    std::uint64_t first_missing = 0;
    while (first_missing < cells && result.done[first_missing]) ++first_missing;
    throw std::runtime_error(
        "dsweep: shard manifests cover " + std::to_string(merged) + "/" +
        std::to_string(cells) + " cells (first missing: cell " +
        std::to_string(first_missing) +
        "); resume the unfinished shard before merging");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Checkpointed FER sweeps
// ---------------------------------------------------------------------------

namespace {

Json string_array(const std::vector<std::string>& v) {
  Json::Array arr;
  for (const auto& s : v) arr.push_back(Json(s));
  return Json(std::move(arr));
}

template <typename T>
Json number_array(const std::vector<T>& v) {
  Json::Array arr;
  for (const T x : v) arr.push_back(Json(static_cast<std::uint64_t>(x)));
  return Json(std::move(arr));
}

FerDistResult fer_dist_from_dsweep(DsweepResult res) {
  FerDistResult out;
  out.done = std::move(res.done);
  out.stats = res.stats;
  out.cells.resize(res.records.size());
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    if (out.done[i]) out.cells[i] = fer_cell_from_json(res.records[i]);
  }
  return out;
}

}  // namespace

Json fer_job_config(const SweepGrid& grid, const FerSweepOptions& options) {
  Json g;
  g["devices"] = string_array(grid.devices);
  g["mapping_specs"] = string_array(grid.mapping_specs);
  g["interleavers"] = string_array(grid.interleavers);
  g["channels"] = string_array(grid.channels);
  g["rs_ks"] = number_array(grid.rs_ks);
  g["symbols_per_bursts"] = number_array(grid.symbols_per_bursts);
  g["links"] = number_array(grid.links);

  const PipelineConfig& b = options.base;
  Json base;
  base["interleaver"] = b.interleaver;
  base["channel"] = b.channel;
  base["rs_n"] = static_cast<std::uint64_t>(b.rs_n);
  base["rs_k"] = static_cast<std::uint64_t>(b.rs_k);
  base["frames"] = static_cast<std::uint64_t>(b.frames);
  base["side"] = b.side;
  base["symbols_per_burst"] = b.symbols_per_burst;
  base["error_probability"] = b.error_probability;
  base["fade_fraction"] = b.fade_fraction;
  base["mean_burst_symbols"] = b.mean_burst_symbols;
  base["error_rate_bad"] = b.error_rate_bad;
  base["links"] = static_cast<std::uint64_t>(b.links);
  base["link_phase_symbols"] = b.link_phase_symbols;
  base["run_dram"] = b.run_dram;
  // Devices enter the fingerprint by standard-config name (grids name
  // their devices anyway).
  base["device"] = b.device.name;
  base["mapping_spec"] = b.mapping_spec;
  base["dram_max_bursts_per_phase"] = b.dram_max_bursts_per_phase;
  base["check_protocol"] = b.check_protocol;

  Json job;
  job["grid"] = g;
  job["base"] = base;
  // Not a setting: the channel models' draw revision. It enters the run
  // fingerprint, so --resume and --merge-shards refuse a manifest whose
  // records were drawn by other channel code (or written before the
  // stamp existed).
  job["channel_draws"] = static_cast<std::uint64_t>(channel::kDrawRevision);
  return job;
}

Json fer_cell_to_json(const Scenario& scenario, const PipelineResult& result) {
  Json sc;
  sc["device"] = scenario.device;
  sc["mapping_spec"] = scenario.mapping_spec;
  sc["interleaver"] = scenario.interleaver;
  sc["channel"] = scenario.channel;
  sc["rs_k"] = static_cast<std::uint64_t>(scenario.rs_k);
  sc["symbols_per_burst"] = scenario.symbols_per_burst;
  sc["links"] = static_cast<std::uint64_t>(scenario.links);

  Json r;
  r["frames"] = result.frames;
  r["code_words"] = result.code_words;
  r["word_errors"] = result.word_errors;
  r["frame_errors"] = result.frame_errors;
  r["channel_symbol_errors"] = result.channel_symbol_errors;
  r["corrected_symbols"] = result.corrected_symbols;
  r["frame_symbols"] = result.frame_symbols;
  r["workspace_peak_bytes"] = result.workspace_peak_bytes;
  r["host_ns"] = result.host_ns;
  r["steady_allocations"] = result.steady_allocations;
  r["steady_frames"] = result.steady_frames;
  r["channel_symbols"] = result.channel_symbols;
  r["dram_ran"] = result.dram_ran;
  if (result.dram_ran) {
    r["dram_throughput_gbps"] = result.dram_throughput_gbps;
    r["dram_bursts"] = result.dram.total_bursts();
    r["dram_sched_ns_per_pick"] = result.dram.sched_ns_per_pick();
  }

  Json j;
  j["scenario"] = sc;
  j["result"] = r;
  return j;
}

FerCell fer_cell_from_json(const Json& record) {
  const Json& sc = record.at("scenario");
  const Json& r = record.at("result");
  FerCell cell;
  cell.scenario.device = sc.at("device").as_string();
  cell.scenario.mapping_spec = sc.at("mapping_spec").as_string();
  cell.scenario.interleaver = sc.at("interleaver").as_string();
  cell.scenario.channel = sc.at("channel").as_string();
  cell.scenario.rs_k = static_cast<unsigned>(sc.at("rs_k").as_double());
  cell.scenario.symbols_per_burst =
      static_cast<std::uint64_t>(sc.at("symbols_per_burst").as_double());
  cell.scenario.links = static_cast<unsigned>(sc.get_or("links", 0.0));

  const auto u64 = [&r](const char* key) {
    return static_cast<std::uint64_t>(r.at(key).as_double());
  };
  cell.result.frames = u64("frames");
  cell.result.code_words = u64("code_words");
  cell.result.word_errors = u64("word_errors");
  cell.result.frame_errors = u64("frame_errors");
  cell.result.channel_symbol_errors = u64("channel_symbol_errors");
  cell.result.corrected_symbols = u64("corrected_symbols");
  cell.result.frame_symbols = u64("frame_symbols");
  cell.result.workspace_peak_bytes = u64("workspace_peak_bytes");
  cell.result.host_ns = u64("host_ns");
  cell.result.steady_allocations = u64("steady_allocations");
  cell.result.steady_frames = u64("steady_frames");
  cell.result.channel_symbols = u64("channel_symbols");
  cell.result.dram_ran = r.at("dram_ran").as_bool();
  if (cell.result.dram_ran) {
    cell.result.dram_throughput_gbps = r.at("dram_throughput_gbps").as_double();
    cell.dram_bursts = u64("dram_bursts");
    cell.dram_sched_ns_per_pick = r.at("dram_sched_ns_per_pick").as_double();
  }
  return cell;
}

FerDistResult run_fer_sweep_dist(const SweepGrid& grid, const FerSweepOptions& options,
                                 DsweepOptions dist) {
  dist.threads = options.sweep.threads;
  const auto cells = grid.expand();
  // The cell body of run_fer_sweep (fer_cell_config is shared), so both
  // paths produce byte-identical records.
  return fer_dist_from_dsweep(dsweep_run(
      "fer", fer_job_config(grid, options), cells.size(), options.sweep.base_seed, dist,
      [&](std::uint64_t index, std::uint64_t seed) {
        const Scenario& scenario = cells[index];
        return fer_cell_to_json(
            scenario, run_pipeline(fer_cell_config(options.base, scenario, seed)));
      }));
}

FerDistResult run_fer_merge_shards(const SweepGrid& grid, const FerSweepOptions& options,
                                   const std::vector<std::string>& manifest_paths) {
  return fer_dist_from_dsweep(dsweep_merge_shards("fer", fer_job_config(grid, options),
                                                  grid.size(), options.sweep.base_seed,
                                                  manifest_paths));
}

}  // namespace tbi::sim
