/// \file dsweep.hpp
/// Checkpointed sweeps: `sweep_map` threads plus a manifest.
///
/// `dsweep_run` keeps `sweep_map`'s contract — every cell's seed is
/// `job_seed(base_seed, index)` and records are collected *by index*, so
/// the result is byte-identical for any thread count — and adds what a
/// long sweep on a preemptible machine needs:
///
///  * a checkpoint journal (sim/manifest.hpp): every committed cell is
///    appended and fsynced, fingerprinted by (name, job, cells, seed);
///  * `resume`: cells already in the journal are adopted, not recomputed;
///  * cancellation (the SIGINT/SIGTERM flag) and the `abort-after=K`
///    fault (sim/fault.hpp): no new cell starts, the cells in flight
///    commit, and the result comes back partial with `interrupted` set;
///  * sharding: `shard_index / shard_count` computes one contiguous cell
///    range into its own manifest (all shards share the full-run
///    fingerprint), and `dsweep_merge_shards` reassembles the ranges into
///    a result byte-identical to the unsharded run. Multi-host runs are
///    independent shards.
///
/// The cell function is named by `name` only for the fingerprint; `job`
/// is the JSON view of everything the cells depend on, so a manifest from
/// a run with another grid, seed or configuration is refused.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/fault.hpp"
#include "sim/pipeline.hpp"
#include "sim/sweep.hpp"

namespace tbi::sim {

/// One cell of a checkpointed sweep: deterministic (index, seed) -> record.
/// Runs concurrently on the sweep's threads.
using DsweepCell = std::function<Json(std::uint64_t index, std::uint64_t seed)>;

struct DsweepOptions {
  unsigned threads = 0;  ///< sweep threads (0 = all cores)
  bool resume = false;   ///< load the manifest and skip recorded cells
  /// Checkpoint journal path (conventionally `<json-sink>.manifest`);
  /// empty disables checkpointing and resume.
  std::string manifest_path;
  /// Shard `shard_index` of `shard_count`: compute only the contiguous
  /// range shard_range(cells, index, count). The manifest still carries
  /// the full-run fingerprint, so dsweep_merge_shards can reassemble.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  FaultSpec faults;  ///< injected preemption (tests / CI)
  /// Cooperative cancellation (SIGINT/SIGTERM handler flag): checked
  /// before each cell starts; a set flag stops the sweep and returns the
  /// committed cells with stats.interrupted set.
  const volatile std::sig_atomic_t* cancel = nullptr;
  std::function<void(const SweepProgress&)> progress;  ///< optional, serialized
};

struct DsweepStats {
  std::uint64_t resumed_cells = 0;  ///< cells loaded from the manifest
  bool interrupted = false;         ///< stopped by cancel/abort, result partial

  Json to_json() const;
};

struct DsweepResult {
  /// Record per cell, index-ordered. On an interrupted run only the
  /// completed cells are non-null (`done[i]` tells them apart).
  std::vector<Json> records;
  std::vector<bool> done;
  DsweepStats stats;
};

/// Run the outstanding cells of this shard through sweep_map, committing
/// each to the manifest as it finishes. Rethrows the first exception a
/// cell throws; throws std::runtime_error when a resume manifest does not
/// match this run's fingerprint.
DsweepResult dsweep_run(const std::string& name, const Json& job, std::uint64_t cells,
                        std::uint64_t base_seed, const DsweepOptions& options,
                        const DsweepCell& fn);

/// Reassemble a sharded sweep from its per-shard manifests. Every
/// manifest must carry this run's fingerprint (foreign manifests throw
/// std::runtime_error) and together the shards must cover every cell —
/// a torn or unfinished shard must be `--resume`d to completion before
/// it can merge. Records keep their manifest bytes, so the merged result
/// is byte-identical to an unsharded run.
DsweepResult dsweep_merge_shards(const std::string& name, const Json& job,
                                 std::uint64_t cells, std::uint64_t base_seed,
                                 const std::vector<std::string>& manifest_paths);

// ---------------------------------------------------------------------------
// Checkpointed FER sweeps
// ---------------------------------------------------------------------------

/// One FER cell as its manifest record carries it. `result.dram` is not
/// populated on this path (the record carries the derived DRAM metrics
/// instead).
struct FerCell {
  Scenario scenario;
  PipelineResult result;
  std::uint64_t dram_bursts = 0;
  double dram_sched_ns_per_pick = 0;
};

struct FerDistResult {
  std::vector<FerCell> cells;  ///< index-ordered; valid where done[i]
  std::vector<bool> done;
  DsweepStats stats;
};

/// The "fer" sweep's job config (its fingerprint input) for this grid +
/// options.
Json fer_job_config(const SweepGrid& grid, const FerSweepOptions& options);

/// Record conversions for one FER cell.
Json fer_cell_to_json(const Scenario& scenario, const PipelineResult& result);
FerCell fer_cell_from_json(const Json& record);

/// run_fer_sweep with a checkpoint: same grid semantics, same per-cell
/// seeds, records in index order. `dist.threads` is taken from
/// `options.sweep.threads`.
FerDistResult run_fer_sweep_dist(const SweepGrid& grid, const FerSweepOptions& options,
                                 DsweepOptions dist);

/// dsweep_merge_shards for the "fer" sweep: reassemble shard manifests
/// of this grid into a full FerDistResult.
FerDistResult run_fer_merge_shards(const SweepGrid& grid, const FerSweepOptions& options,
                                   const std::vector<std::string>& manifest_paths);

}  // namespace tbi::sim
