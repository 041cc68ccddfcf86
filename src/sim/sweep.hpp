/// \file sweep.hpp
/// Parallel scenario-sweep engine.
///
/// Every paper artifact (Table I, the ablation, the dimension sweep) and
/// every future scaling experiment is a cartesian grid of scenarios —
/// device × mapping × interleaver × channel × code rate — whose cells are
/// independent simulations. The engine runs such a grid's cells on plain
/// threads that claim them one index at a time, seeds every job
/// deterministically from (base_seed, job index), and collects results
/// *by index*, so the record vector is byte-identical for any thread count
/// (tested property).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/runner.hpp"

namespace tbi::sim {

/// Deterministic 64-bit seed for job \p index of a sweep started with
/// \p base_seed (splitmix64 mixing; never returns the same value for two
/// indices under one base seed).
std::uint64_t job_seed(std::uint64_t base_seed, std::uint64_t index);

/// Threads a sweep over \p jobs jobs should run on, the calling thread
/// included: \p requested (0 means all hardware threads, and at most 256,
/// so a "--threads -1" that wrapped through an unsigned cast cannot ask
/// for billions) clamped to the job count, since idle threads for a
/// 3-cell grid are pure overhead, and never less than 1.
unsigned effective_threads(unsigned requested, std::uint64_t jobs);

/// Progress snapshot delivered after every finished job (serialized; the
/// callback never runs concurrently with itself).
struct SweepProgress {
  std::uint64_t completed = 0;
  std::uint64_t total = 0;
};

struct SweepOptions {
  unsigned threads = 0;          ///< threads to run on; 0 = hardware concurrency
  std::uint64_t base_seed = 1;   ///< root of the per-job seed derivation
  std::function<void(const SweepProgress&)> progress;  ///< optional
};

/// Map \p fn over [0, count); fn(index, seed) runs once per index with
/// seed = job_seed(base_seed, index). The calling thread and
/// effective_threads(threads, count) - 1 helper threads each claim the
/// next index from one counter, so one thread runs every job on the
/// calling thread. Results are stored at their index, so the output is
/// independent of the thread count and of job completion order. The
/// first job that throws stops further claims; its exception is rethrown
/// once the helpers are joined. The result type must be
/// default-constructible.
template <typename Fn>
auto sweep_map(std::uint64_t count, const SweepOptions& options, Fn&& fn)
    -> std::vector<decltype(fn(std::uint64_t{}, std::uint64_t{}))> {
  using Result = decltype(fn(std::uint64_t{}, std::uint64_t{}));
  static_assert(!std::is_same_v<Result, bool>,
                "sweep_map: concurrent writes to std::vector<bool> race on "
                "packed bits; return an int or a struct instead");
  std::vector<Result> results(count);
  std::atomic<std::uint64_t> next{0};
  std::mutex mutex;  // guards completed, first_error and the progress callback
  std::uint64_t completed = 0;
  std::exception_ptr first_error;
  const auto claim_jobs = [&] {
    for (std::uint64_t i; (i = next++) < count;) {
      try {
        results[i] = fn(i, job_seed(options.base_seed, i));
        if (options.progress) {
          std::lock_guard<std::mutex> lock(mutex);
          options.progress(SweepProgress{++completed, count});
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
        next = count;
        return;
      }
    }
  };
  {
    std::vector<std::jthread> helpers(effective_threads(options.threads, count) - 1);
    for (auto& helper : helpers) helper = std::jthread(claim_jobs);
    claim_jobs();
  }  // joins the helpers
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

// ---------------------------------------------------------------------------
// Scenario grids
// ---------------------------------------------------------------------------

/// One cell of the sweep grid. Axes not exercised by a particular sweep
/// keep their defaults (e.g. bandwidth sweeps ignore channel and code).
struct Scenario {
  std::string device;                    ///< dram::find_config name
  std::string mapping_spec = "optimized";
  std::string interleaver = "triangular";  ///< "none" | "triangular" | "block" | "two-stage"
  std::string channel = "none";            ///< "none" | "bsc" | "gilbert-elliott" | "leo"
  unsigned rs_k = 223;                     ///< RS(255, k) data symbols

  std::string label() const;
};

/// Cartesian scenario grid; expand() enumerates cells in row-major axis
/// order (devices outermost, rs_ks innermost) — the job-index order that
/// deterministic seeding keys on.
struct SweepGrid {
  std::vector<std::string> devices;
  std::vector<std::string> mapping_specs = {"optimized"};
  std::vector<std::string> interleavers = {"triangular"};
  std::vector<std::string> channels = {"none"};
  std::vector<unsigned> rs_ks = {223};

  /// All ten Table-I devices, both paper mappings.
  static SweepGrid paper_bandwidth_grid();

  std::uint64_t size() const;
  std::vector<Scenario> expand() const;
};

// ---------------------------------------------------------------------------
// Bandwidth sweeps (DRAM phases only; fully deterministic, no RNG)
// ---------------------------------------------------------------------------

struct BandwidthSweepOptions {
  SweepOptions sweep;
  std::uint64_t total_symbols = kPaperSymbols;  ///< 3-bit symbols per frame
  std::uint64_t max_bursts_per_phase = 0;       ///< 0 = full triangle
  bool check_protocol = false;
};

/// One collected record: the scenario, the exact RunConfig executed, and
/// the write/read PhaseResults.
struct BandwidthRecord {
  Scenario scenario;
  RunConfig config;
  InterleaverRun run;
};

/// Run the DRAM write/read phases of one (device, mapping) cell with the
/// RunConfig \p options give it. Throws std::invalid_argument for an
/// unknown device. Interleaver/channel/code axes are ignored here.
BandwidthRecord run_bandwidth_cell(const Scenario& scenario,
                                   const BandwidthSweepOptions& options);

/// run_bandwidth_cell for every cell of the grid, in parallel.
std::vector<BandwidthRecord> run_bandwidth_sweep(const SweepGrid& grid,
                                                 const BandwidthSweepOptions& options);

}  // namespace tbi::sim
