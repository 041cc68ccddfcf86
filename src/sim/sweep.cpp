#include "sim/sweep.hpp"

#include <algorithm>
#include <stdexcept>

#include "dram/standards.hpp"
#include "interleaver/streams.hpp"

namespace tbi::sim {

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

std::uint64_t job_seed(std::uint64_t base_seed, std::uint64_t index) {
  // Mix twice so consecutive indices land far apart even for tiny bases;
  // splitmix64 is a bijection, so distinct indices never collide under
  // one base seed.
  return splitmix64(splitmix64(base_seed) ^ index);
}

unsigned resolve_threads(unsigned requested) {
  // Hard cap: protects against nonsense like "--threads -1" wrapping to
  // 4.3 billion through an unsigned cast and aborting in thread spawn.
  constexpr unsigned kMaxThreads = 256;
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw != 0 ? hw : 1;
  }
  return std::min(requested, kMaxThreads);
}

unsigned effective_threads(unsigned requested, std::uint64_t jobs) {
  const std::uint64_t resolved = resolve_threads(requested);
  return static_cast<unsigned>(std::max<std::uint64_t>(1, std::min(resolved, jobs)));
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    throw std::invalid_argument("ThreadPool: need at least one thread");
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario grids
// ---------------------------------------------------------------------------

std::string Scenario::label() const {
  // Injective over the full tuple: every axis is always spelled out, so
  // two distinct cells can never share a label (eliding "triangular" or
  // the rs_k of channel-free cells used to collide e.g. distinct rs_k
  // cells under channel == "none").
  return device + "/" + mapping_spec + "/" + interleaver + "/" + channel + "/RS(255," +
         std::to_string(rs_k) + ")";
}

SweepGrid SweepGrid::paper_bandwidth_grid() {
  SweepGrid grid;
  for (const auto& device : dram::standard_configs()) {
    grid.devices.push_back(device.name);
  }
  grid.mapping_specs = {"row-major", "optimized"};
  return grid;
}

std::uint64_t SweepGrid::size() const {
  return static_cast<std::uint64_t>(devices.size()) * mapping_specs.size() *
         interleavers.size() * channels.size() * rs_ks.size();
}

std::vector<Scenario> SweepGrid::expand() const {
  std::vector<Scenario> cells;
  cells.reserve(size());
  for (const auto& device : devices) {
    for (const auto& mapping : mapping_specs) {
      for (const auto& il : interleavers) {
        for (const auto& ch : channels) {
          for (const unsigned k : rs_ks) {
            Scenario s;
            s.device = device;
            s.mapping_spec = mapping;
            s.interleaver = il;
            s.channel = ch;
            s.rs_k = k;
            cells.push_back(std::move(s));
          }
        }
      }
    }
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Bandwidth sweeps
// ---------------------------------------------------------------------------

BandwidthRecord run_bandwidth_cell(const Scenario& scenario,
                                   const BandwidthSweepOptions& options) {
  const auto* device = dram::find_config(scenario.device);
  if (device == nullptr) {
    throw std::invalid_argument("run_bandwidth_cell: unknown device '" +
                                scenario.device + "'");
  }
  BandwidthRecord record;
  record.scenario = scenario;
  record.config.device = *device;
  record.config.mapping_spec = scenario.mapping_spec;
  record.config.side = interleaver::burst_triangle_side(
      options.total_symbols, kPaperSymbolBits, device->burst_bytes);
  record.config.max_bursts_per_phase = options.max_bursts_per_phase;
  record.config.check_protocol = options.check_protocol;
  record.run = run_interleaver(record.config);
  return record;
}

std::vector<BandwidthRecord> run_bandwidth_sweep(const SweepGrid& grid,
                                                 const BandwidthSweepOptions& options) {
  const auto cells = grid.expand();
  return sweep_map(cells.size(), options.sweep,
                   [&](std::uint64_t index, std::uint64_t /*seed*/) {
    return run_bandwidth_cell(cells[index], options);
  });
}

}  // namespace tbi::sim
