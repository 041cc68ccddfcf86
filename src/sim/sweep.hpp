/// \file sweep.hpp
/// Parallel scenario-sweep engine.
///
/// Every paper artifact (Table I, the ablation, the dimension sweep) and
/// every future scaling experiment is a cartesian grid of scenarios —
/// device × mapping × interleaver × channel × code rate — whose cells are
/// independent simulations. The engine shards such a grid over a fixed
/// thread pool, seeds every job deterministically from (base_seed, job
/// index), and collects results *by index*, so the record vector is
/// byte-identical for any thread count (tested property).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
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

/// Resolve a requested worker count: 0 means "all hardware threads".
unsigned resolve_threads(unsigned requested);

/// Worker threads a sweep over \p jobs jobs should actually spawn: the
/// resolved request clamped to the job count (spawning idle workers for a
/// 3-cell grid on a 128-core box is pure overhead), and never less than 1
/// so callers can hand the result straight to ThreadPool.
unsigned effective_threads(unsigned requested, std::uint64_t jobs);

/// Fixed-size worker pool. Jobs are plain closures; wait_idle() blocks
/// until every submitted job has finished. Exceptions thrown by jobs are
/// captured and the first one is rethrown from wait_idle().
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  void submit(std::function<void()> job);
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::uint64_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Progress snapshot delivered after every finished job (serialized; the
/// callback never runs concurrently with itself).
struct SweepProgress {
  std::uint64_t completed = 0;
  std::uint64_t total = 0;
  double fraction() const {
    return total ? static_cast<double>(completed) / static_cast<double>(total) : 1.0;
  }
};

struct SweepOptions {
  unsigned threads = 0;          ///< worker threads; 0 = hardware concurrency
  std::uint64_t base_seed = 1;   ///< root of the per-job seed derivation
  std::function<void(const SweepProgress&)> progress;  ///< optional
};

/// Map \p fn over [0, count) on a thread pool; fn(index, seed) runs once
/// per index with seed = job_seed(base_seed, index). Results are stored at
/// their index, so the output is independent of the thread count and of
/// job completion order. The result type must be default-constructible.
template <typename Fn>
auto sweep_map(std::uint64_t count, const SweepOptions& options, Fn&& fn)
    -> std::vector<decltype(fn(std::uint64_t{}, std::uint64_t{}))> {
  using Result = decltype(fn(std::uint64_t{}, std::uint64_t{}));
  static_assert(!std::is_same_v<Result, bool>,
                "sweep_map: concurrent writes to std::vector<bool> race on "
                "packed bits; return an int or a struct instead");
  std::vector<Result> results(count);
  // An empty grid (an empty axis) must not spin up a pool just to tear
  // it down — and ThreadPool itself rejects 0 threads.
  if (count == 0) return results;
  ThreadPool pool(effective_threads(options.threads, count));

  std::mutex progress_mutex;
  std::uint64_t completed = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    pool.submit([&, i] {
      results[i] = fn(i, job_seed(options.base_seed, i));
      if (options.progress) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        options.progress(SweepProgress{++completed, count});
      }
    });
  }
  pool.wait_idle();
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
