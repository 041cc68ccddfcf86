/// \file dsweep.hpp
/// Checkpointed sweeps: `sweep_map` threads plus a manifest.
///
/// `dsweep_run` runs on the caller's SweepOptions and keeps `sweep_map`'s
/// contract — every cell's seed is `job_seed(base_seed, index)` and
/// records are collected *by index*, so the result is byte-identical for
/// any thread count — and adds what a long sweep on a preemptible machine
/// needs:
///
///  * a checkpoint journal (sim/manifest.hpp): every committed cell is
///    appended and fsynced, fingerprinted by (name, job, cells, seed);
///  * `resume`: cells already in the journal are adopted, not recomputed;
///  * cancellation (the SIGINT/SIGTERM flag) and the `abort-after=K`
///    fault (`TBI_FAULT_INJECT`, parse_fault_inject): no new cell starts,
///    the cells in flight commit, and the result comes back partial with
///    `interrupted` set;
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
#include "sim/pipeline.hpp"
#include "sim/sweep.hpp"

namespace tbi::sim {

/// One cell of a checkpointed sweep: deterministic (index, seed) -> record.
/// Runs concurrently on the sweep's threads.
using DsweepCell = std::function<Json(std::uint64_t index, std::uint64_t seed)>;

/// The checkpoint's options. Threads, the base seed and progress are the
/// sweep's own (SweepOptions).
struct DsweepOptions {
  bool resume = false;  ///< load the manifest and skip recorded cells
  /// Checkpoint journal path (conventionally `<json-sink>.manifest`);
  /// empty disables checkpointing and resume.
  std::string manifest_path;
  /// Shard `shard_index` of `shard_count`: compute only the contiguous
  /// range shard_range(cells, index, count). The manifest still carries
  /// the full-run fingerprint, so dsweep_merge_shards can reassemble.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  /// Injected preemption: stop after this many cells committed by this
  /// run, as SIGINT would (0 = never). See parse_fault_inject.
  std::uint64_t abort_after = 0;
  /// Cooperative cancellation (SIGINT/SIGTERM handler flag): checked
  /// before each cell starts; a set flag stops the sweep and returns the
  /// committed cells with stats.interrupted set.
  const volatile std::sig_atomic_t* cancel = nullptr;
};

/// The abort_after count of a `TBI_FAULT_INJECT` spec: `abort-after=K`
/// with 1 <= K <= 2^64 - 1, or 0 (no fault) for nullptr or "". A resume
/// path that only runs when a machine is preempted has never run, so the
/// fault exercises it on demand. Throws std::invalid_argument on anything
/// else: an unreadable spec must fail loudly, not silently test nothing.
std::uint64_t parse_fault_inject(const char* spec);

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

/// Run the outstanding cells of this shard through sweep_map on
/// `sweep.threads`, seeding from `sweep.base_seed` and committing each
/// cell to the manifest as it finishes. `sweep.progress` is called after
/// each commit (and once for the cells a resume adopted), serialized,
/// with the shard's cell count as the total. Rethrows the first exception
/// a cell throws; throws std::runtime_error when a resume manifest does
/// not match this run's fingerprint.
DsweepResult dsweep_run(const std::string& name, const Json& job, std::uint64_t cells,
                        const SweepOptions& sweep, const DsweepOptions& options,
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

/// The name the FER sweep is fingerprinted under. It stands for the
/// journal's record shape as well: a journal of another shape (the nested
/// `{scenario, result}` records once written under "fer") is another run
/// to `--resume` and `--merge-shards`.
inline constexpr const char* kFerSweep = "fer-record";

/// The FER sweep's job config (its fingerprint input) for this grid +
/// options.
Json fer_job_config(const SweepGrid& grid, const FerSweepOptions& options);

/// The one FER record: bench_fer's output row for one cell, host timing
/// included. The checkpoint journal stores it as is; the front ends drop
/// the host timing (perf::without_host_timing) for stable output.
Json fer_record(const Scenario& scenario, const PipelineResult& result);

/// run_fer_sweep with a checkpoint: the same cell body (FerCells), grid
/// check and per-cell seeds (options.sweep), one fer_record per cell in
/// index order.
DsweepResult run_fer_sweep_dist(const SweepGrid& grid, const FerSweepOptions& options,
                                const DsweepOptions& dist);

/// dsweep_merge_shards for the FER sweep: reassemble shard manifests of
/// this grid into the full run's records.
DsweepResult run_fer_merge_shards(const SweepGrid& grid, const FerSweepOptions& options,
                                  const std::vector<std::string>& manifest_paths);

}  // namespace tbi::sim
