#include "sim/dsweep.hpp"

#include <charconv>
#include <mutex>
#include <stdexcept>

#include "channel/channel.hpp"
#include "sim/manifest.hpp"

namespace tbi::sim {

std::uint64_t parse_fault_inject(const char* spec) {
  if (spec == nullptr || *spec == '\0') return 0;
  const std::string text = spec;
  const std::string action = "abort-after=";
  if (text.rfind(action, 0) != 0) {
    throw std::invalid_argument("fault spec: unknown action '" + text +
                                "' (only abort-after=K is supported)");
  }
  const std::string count = text.substr(action.size());
  // Digits only, and no more than fit 64 bits: a saturated count would
  // never fire.
  std::uint64_t k = 0;
  const char* end = count.data() + count.size();
  const auto [ptr, ec] = std::from_chars(count.data(), end, k);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("fault spec: bad count '" + count + "'");
  }
  if (k == 0) {
    throw std::invalid_argument("fault spec: abort-after count must be >= 1");
  }
  return k;
}

Json DsweepStats::to_json() const {
  Json j;
  j["resumed_cells"] = resumed_cells;
  j["interrupted"] = interrupted;
  return j;
}

DsweepResult dsweep_run(const std::string& name, const Json& job, std::uint64_t cells,
                        const SweepOptions& sweep, const DsweepOptions& options,
                        const DsweepCell& fn) {
  // Validates the shard spec (throws on index >= count / count == 0).
  const ShardRange range = shard_range(cells, options.shard_index, options.shard_count);

  DsweepResult result;
  result.records.resize(cells);
  result.done.assign(cells, false);

  const std::string fingerprint = sweep_fingerprint(name, job, cells, sweep.base_seed);
  ManifestWriter manifest;
  std::uint64_t done_count = 0;
  if (!options.manifest_path.empty()) {
    bool fresh = true;
    if (options.resume) {
      const auto load = load_manifest(options.manifest_path, fingerprint);
      if (load.found && !load.fingerprint_ok) {
        throw std::runtime_error(
            "dsweep: manifest '" + options.manifest_path +
            "' was written by a different run (grid, seed, config or record "
            "shape changed); delete it or drop --resume");
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
    if (sweep.progress && done_count > 0) {
      sweep.progress({done_count, range.size()});
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
  // sweep_map gets the thread count only: its seeds key on the position
  // in `todo`, a cell's seed keys on its grid index (whatever was resumed
  // or sharded away), and progress counts commits, which happen here.
  SweepOptions pool;
  pool.threads = sweep.threads;
  auto computed = sweep_map(todo.size(), pool, [&](std::uint64_t j, std::uint64_t) {
    const std::uint64_t cell = todo[j];
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (stopping()) return Json();
    }
    Json record = fn(cell, job_seed(sweep.base_seed, cell));
    std::lock_guard<std::mutex> lock(mutex);
    result.done[cell] = true;
    ++done_count;
    if (manifest.is_open()) manifest.append(cell, record);
    if (sweep.progress) sweep.progress({done_count, range.size()});
    if (done_count - result.stats.resumed_cells == options.abort_after) {
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
                               "(grid, seed, config or record shape changed)");
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

}  // namespace

Json fer_job_config(const SweepGrid& grid, const FerSweepOptions& options) {
  Json g;
  g["devices"] = string_array(grid.devices);
  g["mapping_specs"] = string_array(grid.mapping_specs);
  g["interleavers"] = string_array(grid.interleavers);
  g["channels"] = string_array(grid.channels);
  g["rs_ks"] = number_array(grid.rs_ks);
  g["symbols_per_bursts"] = number_array(grid.symbols_per_bursts);

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

Json fer_record(const Scenario& scenario, const PipelineResult& result) {
  Json row;
  row["interleaver"] = scenario.interleaver;
  row["channel"] = scenario.channel;
  row["rs_k"] = static_cast<std::uint64_t>(scenario.rs_k);
  row["frame_symbols"] = result.frame_symbols;
  row["code_words"] = result.code_words;
  row["word_errors"] = result.word_errors;
  row["frame_errors"] = result.frame_errors;
  row["channel_symbol_errors"] = result.channel_symbol_errors;
  row["corrected_symbols"] = result.corrected_symbols;
  row["wer"] = result.word_error_rate();
  row["fer"] = result.frame_error_rate();
  // Perf counters (src/perf/counters.hpp): exact fields pin the
  // zero-allocation hot-path invariant, *_ns / *_per_second fields are
  // host timing and only band-checked by bench_compare.
  row["workspace_peak_bytes"] = result.workspace_peak_bytes;
  row["steady_allocations"] = result.steady_allocations;
  row["steady_frames"] = result.steady_frames;
  row["allocations_per_frame"] = result.allocations_per_frame();
  row["host_ns"] = result.host_ns;
  row["channel_symbols"] = result.channel_symbols;
  row["channel_symbols_per_second"] = result.channel_symbols_per_second();
  if (result.dram_ran) {
    row["dram_throughput_gbps"] = result.dram_throughput_gbps;
    row["dram_bursts"] = result.dram.total_bursts();
    row["dram_sched_ns_per_pick"] = result.dram.sched_ns_per_pick();
  }
  return row;
}

DsweepResult run_fer_sweep_dist(const SweepGrid& grid, const FerSweepOptions& options,
                                const DsweepOptions& dist) {
  // Checks the grid before the journal opens.
  FerCells cells(grid, options.base);
  return dsweep_run(kFerSweep, fer_job_config(grid, options), cells.size(), options.sweep,
                    dist, [&](std::uint64_t index, std::uint64_t seed) {
                      const FerRecord r = cells.run(index, seed);
                      return fer_record(r.scenario, r.result);
                    });
}

DsweepResult run_fer_merge_shards(const SweepGrid& grid, const FerSweepOptions& options,
                                  const std::vector<std::string>& manifest_paths) {
  return dsweep_merge_shards(kFerSweep, fer_job_config(grid, options), grid.size(),
                             options.sweep.base_seed, manifest_paths);
}

}  // namespace tbi::sim
