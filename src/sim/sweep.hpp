/// \file sweep.hpp
/// Parallel scenario-sweep engine.
///
/// Every study is a list of independent simulations: the DRAM evaluation
/// maps a list of distinct RunConfigs (bench_table1, run_table1), a FER
/// sweep a cartesian grid of scenarios — device × mapping × interleaver ×
/// channel × code rate. The engine runs such a list on plain threads that
/// claim its jobs one index at a time, seeds every job deterministically
/// from (base_seed, job index), and collects results *by index*, so the
/// record vector is byte-identical for any thread count (tested property).
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
/// keep their defaults (e.g. the paper bandwidth grid ignores channel and
/// code).
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

}  // namespace tbi::sim
