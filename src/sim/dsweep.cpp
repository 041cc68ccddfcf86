#include "sim/dsweep.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "channel/channel.hpp"
#include "common/net.hpp"
#include "common/wire.hpp"
#include "perf/counters.hpp"
#include "sim/manifest.hpp"
#include "sim/net_transport.hpp"
#include "sim/transport.hpp"

namespace tbi::sim {

namespace {

using WStatus = wire::FrameReader::Status;

std::mutex g_kernel_mutex;

std::map<std::string, DsweepKernel>& kernel_map() {
  static std::map<std::string, DsweepKernel> m;
  return m;
}

DsweepKernel find_kernel(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_kernel_mutex);
  const auto it = kernel_map().find(name);
  if (it == kernel_map().end()) {
    throw std::invalid_argument("dsweep: unknown kernel '" + name + "'");
  }
  return it->second;
}

std::uint64_t parse_u64_str(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

// ---------------------------------------------------------------------------
// Fork/exec transport: the original local backend behind the Transport
// interface. acquire() spawns a worker process re-invoking the current
// binary with --worker-fd over a socketpair; release() SIGKILLs and
// reaps it.
// ---------------------------------------------------------------------------

class ForkTransport : public Transport {
 public:
  ForkTransport(std::string exe, unsigned slots) : exe_(std::move(exe)), pids_(slots, -1) {}
  ~ForkTransport() override {
    for (unsigned s = 0; s < pids_.size(); ++s) release(s, -1);
  }

  const char* name() const override { return "fork"; }
  bool transient_acquire() const override { return false; }

  int acquire(unsigned slot) override {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return -1;
    // Parent end: close-on-exec (later spawns must not leak it into
    // sibling workers) and nonblocking for the poll loop. The worker end
    // stays inheritable — it must survive the exec.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(sv[0], F_SETFL, O_NONBLOCK);
    char fdbuf[16];
    std::snprintf(fdbuf, sizeof fdbuf, "%d", sv[1]);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      return -1;
    }
    if (pid == 0) {
      // Child: async-signal-safe territory only until exec.
      const char* argv[] = {exe_.c_str(), "--worker-fd", fdbuf, nullptr};
      ::execv(exe_.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(sv[1]);
    pids_[slot] = pid;
    return sv[0];
  }

  void release(unsigned slot, int fd) override {
    if (fd >= 0) ::close(fd);
    if (slot < pids_.size() && pids_[slot] > 0) {
      ::kill(pids_[slot], SIGKILL);
      int status = 0;
      while (::waitpid(pids_[slot], &status, 0) < 0 && errno == EINTR) {
      }
      pids_[slot] = -1;
    }
  }

 private:
  std::string exe_;
  std::vector<pid_t> pids_;
};

// ---------------------------------------------------------------------------
// Parent driver
// ---------------------------------------------------------------------------

struct WorkerSlot {
  unsigned slot = 0;
  int fd = -1;
  wire::FrameReader reader;
  std::int64_t current = -1;  ///< in-flight cell, -1 when idle
  std::uint64_t last_seen_ns = 0;
  unsigned restarts = 0;
  unsigned incarnation = 0;  ///< adoption count; faults ship to incarnation 1 only
  std::uint64_t respawn_at_ns = 0;  ///< next acquire attempt (0 = none scheduled)
  bool alive = false;
  bool retired = false;  ///< restart budget exhausted
  std::uint64_t cells_completed = 0;
};

class Driver {
 public:
  Driver(std::string kernel_name, DsweepKernel kernel, const Json& job,
         std::uint64_t cells, std::uint64_t base_seed, const DsweepOptions& options,
         const ShardRange& range, std::string fingerprint, DsweepResult& result,
         std::uint64_t done_count, ManifestWriter& manifest)
      : kernel_name_(std::move(kernel_name)),
        kernel_(std::move(kernel)),
        job_(job),
        cells_(cells),
        base_seed_(base_seed),
        options_(options),
        range_(range),
        fingerprint_(std::move(fingerprint)),
        result_(result),
        done_count_(done_count),
        manifest_(manifest) {
    abort_after_ = options_.faults.find(FaultAction::Kind::AbortAfterCells);
  }

  void run() {
    for (std::uint64_t i = range_.begin; i < range_.end; ++i) {
      if (!result_.done[i]) pending_.push_back(i);
    }
    remaining_ = pending_.size();
    if (remaining_ == 0) return;

    const bool tcp = !options_.listen.empty();
    bool multi_requested = tcp;
    bool multi = false;
    unsigned want = 0;
    if (tcp) {
      TcpTransportOptions topts;
      topts.fingerprint = fingerprint_;
      topts.handshake_timeout_ms = options_.heartbeat_timeout_ms;
      // A bad address or busy port is a config error, not a worker
      // failure: let the ctor's throw propagate instead of degrading.
      transport_ = std::make_unique<TcpTransport>(options_.listen, topts);
      if (options_.on_listening) {
        options_.on_listening(static_cast<TcpTransport*>(transport_.get())->port());
      }
      result_.stats.tcp = true;
      want = static_cast<unsigned>(
          std::min<std::uint64_t>(std::max(options_.workers, 1u), remaining_));
      multi = true;
    } else {
      multi_requested = options_.workers >= 2 && remaining_ >= 2;
      multi = multi_requested &&
              options_.faults.find(FaultAction::Kind::SpawnFail) == nullptr;
      std::string exe;
      if (multi) {
        exe = self_exe();
        multi = !exe.empty();
      }
      if (multi) {
        want = static_cast<unsigned>(
            std::min<std::uint64_t>(options_.workers, remaining_));
        transport_ = std::make_unique<ForkTransport>(std::move(exe), want);
      }
    }

    if (multi) {
      slots_.resize(want);
      const std::uint64_t now = perf::now_ns();
      unsigned adopted = 0;
      for (unsigned s = 0; s < want; ++s) {
        slots_[s].slot = s;
        if (tcp) {
          // Remote workers arrive on their own schedule; mark the slot as
          // wanting one and let the event loop adopt connections.
          slots_[s].respawn_at_ns = now;
        } else if (try_adopt(slots_[s])) {
          ++adopted;
        } else {
          slots_[s].retired = true;
        }
      }
      result_.stats.workers = tcp ? want : adopted;
      if (tcp || adopted > 0) {
        event_loop();
      }
      cleanup_workers();
      if (tcp) {
        const auto* t = static_cast<const TcpTransport*>(transport_.get());
        result_.stats.connections_adopted = t->adopted();
        result_.stats.connections_rejected = t->rejected();
      }
      for (const auto& s : slots_) {
        result_.stats.per_worker.push_back({s.slot, s.restarts, s.cells_completed});
      }
    }

    if (cancelled()) interrupted_ = true;
    if (!interrupted_ && kernel_error_.empty() && remaining_ > 0) {
      // Workers never spawned/connected, died past their retry budgets,
      // or were skipped: finish the remaining cells in this process.
      result_.stats.degraded_inprocess = multi_requested;
      local_run();
    }
    result_.stats.interrupted = interrupted_;
    if (!kernel_error_.empty()) {
      throw std::invalid_argument("dsweep: kernel failed: " + kernel_error_);
    }
  }

 private:
  bool cancelled() const { return options_.cancel != nullptr && *options_.cancel != 0; }

  // --- shared commit path --------------------------------------------------

  void commit(std::uint64_t cell, Json record) {
    if (result_.done[cell]) return;  // reassigned cell raced its dead owner
    result_.done[cell] = true;
    result_.records[cell] = std::move(record);
    ++done_count_;
    if (remaining_ > 0) --remaining_;
    ++committed_this_run_;
    if (manifest_.is_open()) manifest_.append(cell, result_.records[cell]);
    if (options_.progress) options_.progress({done_count_, range_.size()});
    if (abort_after_ != nullptr && committed_this_run_ >= abort_after_->count) {
      interrupted_ = true;  // injected preemption: stop as SIGINT would
    }
  }

  // --- in-process executor -------------------------------------------------

  void local_run() {
    std::vector<std::uint64_t> todo;
    for (std::uint64_t i = range_.begin; i < range_.end; ++i) {
      if (!result_.done[i]) todo.push_back(i);
    }
    if (todo.empty()) return;
    const unsigned threads = effective_threads(options_.threads, todo.size());
    ThreadPool pool(threads);
    std::atomic<std::uint64_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex commit_mutex;
    for (unsigned t = 0; t < threads; ++t) {
      pool.submit([&] {
        for (;;) {
          if (stop.load(std::memory_order_relaxed) || cancelled()) return;
          const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= todo.size()) return;
          const std::uint64_t cell = todo[i];
          Json record = kernel_(job_, cell, job_seed(base_seed_, cell));
          std::lock_guard<std::mutex> lock(commit_mutex);
          commit(cell, std::move(record));
          if (interrupted_) stop.store(true, std::memory_order_relaxed);
        }
      });
    }
    pool.wait_idle();  // rethrows deterministic kernel failures
    if (cancelled()) interrupted_ = true;
  }

  // --- multi-process executor ----------------------------------------------

  bool try_adopt(WorkerSlot& s) {
    const int fd = transport_->acquire(s.slot);
    if (fd < 0) return false;
    s.respawn_at_ns = 0;
    s.fd = fd;
    s.alive = true;
    s.reader = wire::FrameReader();
    s.last_seen_ns = perf::now_ns();
    ++s.incarnation;

    Json cfg;
    cfg["kernel"] = kernel_name_;
    cfg["job"] = job_;
    // Seeds are full-range u64; JSON numbers are doubles, so ship the
    // seed as a decimal string to survive the round trip bit-exactly.
    cfg["base_seed"] = std::to_string(base_seed_);
    // Remote workers echo the fingerprint back in reconnect Hellos, so a
    // worker can never be adopted by a driver running a different sweep.
    cfg["fingerprint"] = fingerprint_;
    cfg["heartbeat_interval_ms"] =
        static_cast<std::uint64_t>(options_.heartbeat_interval_ms);
    // Injected faults hit a slot's first incarnation only: replacements
    // run clean, so every injected failure converges to recovery.
    cfg["faults"] = s.incarnation == 1 ? options_.faults.worker_actions_json(s.slot)
                                       : Json(Json::Array{});
    if (!wire::write_frame(s.fd, wire::FrameType::JobConfig, cfg.dump(0))) {
      drop(s);
      return false;
    }
    assign_next(s);
    return true;
  }

  /// Release the connection (fork: kill + reap the process too), no
  /// reassignment bookkeeping.
  void drop(WorkerSlot& s) {
    s.alive = false;
    transport_->release(s.slot, s.fd);
    s.fd = -1;
  }

  void fail_worker(WorkerSlot& s) {
    if (!s.alive) return;
    drop(s);
    if (s.current >= 0) {
      const auto cell = static_cast<std::uint64_t>(s.current);
      if (!result_.done[cell]) {
        pending_.push_front(cell);
        ++result_.stats.cells_reassigned;
      }
      s.current = -1;
    }
    if (s.restarts >= options_.max_worker_restarts) {
      s.retired = true;
      return;
    }
    // Exponential backoff before the retry: a worker dying instantly
    // (bad node, OOM loop, flapping link) must not turn the parent into a
    // fork bomb or an adopt/fail spin.
    const std::uint64_t delay_ms = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(options_.backoff_base_ms) << s.restarts, 10'000);
    ++s.restarts;
    ++result_.stats.worker_restarts;
    s.respawn_at_ns = perf::now_ns() + delay_ms * 1'000'000ull;
  }

  void assign_next(WorkerSlot& s) {
    if (!s.alive || s.current >= 0 || pending_.empty()) return;
    const std::uint64_t cell = pending_.front();
    pending_.pop_front();
    s.current = static_cast<std::int64_t>(cell);
    if (!wire::write_frame(s.fd, wire::FrameType::Assign, std::to_string(cell))) {
      fail_worker(s);  // requeues the cell
    }
  }

  void dispatch_pending() {
    for (auto& s : slots_) {
      if (pending_.empty()) return;
      assign_next(s);
    }
  }

  void handle_record(WorkerSlot& s, const wire::Frame& f) {
    std::uint64_t cell = 0;
    Json record;
    try {
      const Json v = Json::parse(f.payload_str());
      cell = static_cast<std::uint64_t>(v.at("cell").as_double());
      record = v.at("record");
    } catch (const JsonError&) {
      ++result_.stats.batches_rejected;
      fail_worker(s);
      return;
    }
    if (!range_.contains(cell)) {
      ++result_.stats.batches_rejected;
      fail_worker(s);
      return;
    }
    if (s.current == static_cast<std::int64_t>(cell)) s.current = -1;
    ++s.cells_completed;
    commit(cell, std::move(record));
    if (!interrupted_) assign_next(s);
  }

  void service(WorkerSlot& s) {
    const WStatus pumped = s.reader.pump(s.fd);
    for (;;) {
      wire::Frame f;
      const WStatus st = s.reader.next(&f);
      if (st == WStatus::Frame) {
        s.last_seen_ns = perf::now_ns();
        if (f.type == wire::FrameType::Record) {
          handle_record(s, f);
        } else if (f.type == wire::FrameType::Error) {
          // Deterministic kernel failure (bad config): retrying cannot
          // help, abort the whole run with the worker's message.
          kernel_error_ = f.payload_str();
          return;
        }
        // Heartbeats only refresh last_seen.
        if (!s.alive || interrupted_) return;
        continue;
      }
      if (st == WStatus::Corrupt) {
        ++result_.stats.batches_rejected;
        fail_worker(s);
        return;
      }
      break;  // NeedMore
    }
    if (pumped == WStatus::Eof && s.alive) fail_worker(s);
  }

  void event_loop() {
    const std::uint64_t hb_timeout_ns =
        static_cast<std::uint64_t>(options_.heartbeat_timeout_ms) * 1'000'000ull;
    const std::uint64_t accept_timeout_ns =
        static_cast<std::uint64_t>(options_.accept_timeout_ms) * 1'000'000ull;
    const int tick_ms = static_cast<int>(
        std::max(10u, std::min(options_.heartbeat_interval_ms, 200u)));
    const bool tcp = transport_->event_fd() >= 0;
    std::uint64_t last_live_ns = perf::now_ns();

    while (remaining_ > 0 && !interrupted_ && kernel_error_.empty()) {
      if (cancelled()) {
        interrupted_ = true;
        break;
      }
      const std::uint64_t now = perf::now_ns();
      transport_->service(now);

      // Slots whose retry backoff expired: fork respawns here; TCP adopts
      // the next handshaken connection, if one is queued.
      for (auto& s : slots_) {
        if (!s.alive && !s.retired && s.respawn_at_ns != 0 && now >= s.respawn_at_ns) {
          if (!try_adopt(s) && !transport_->transient_acquire()) s.retired = true;
        }
      }
      dispatch_pending();

      std::vector<struct pollfd> fds;
      std::vector<WorkerSlot*> owners;
      bool any_alive = false;
      bool any_waiting = false;
      std::uint64_t earliest_respawn = 0;
      for (auto& s : slots_) {
        if (s.alive) {
          fds.push_back({s.fd, POLLIN, 0});
          owners.push_back(&s);
          any_alive = true;
        } else if (!s.retired && s.respawn_at_ns != 0) {
          any_waiting = true;
          if (earliest_respawn == 0 || s.respawn_at_ns < earliest_respawn) {
            earliest_respawn = s.respawn_at_ns;
          }
        }
      }
      if (any_alive || transport_->busy()) last_live_ns = now;
      if (!any_alive) {
        if (!any_waiting) break;  // every slot retired: degrade
        if (tcp && now - last_live_ns > accept_timeout_ns) {
          // Nobody connected (or everybody left) for the whole window:
          // stop waiting for the fleet and run the cells ourselves.
          break;
        }
      }
      const int efd = transport_->event_fd();
      if (efd >= 0) {
        fds.push_back({efd, POLLIN, 0});
        owners.push_back(nullptr);  // transport-level readiness; serviced above
      }
      if (fds.empty()) {
        // Fork backend with only backoff timers outstanding.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<std::uint64_t>(
                (std::max(earliest_respawn, now) - now) / 1'000'000ull + 1, 50)));
        continue;
      }

      const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), tick_ms);
      if (ready > 0) {
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (owners[i] == nullptr) continue;
          if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
            service(*owners[i]);
            if (interrupted_ || !kernel_error_.empty()) break;
          }
        }
      }

      const std::uint64_t scan = perf::now_ns();
      for (auto& s : slots_) {
        if (s.alive && scan - s.last_seen_ns > hb_timeout_ns) {
          // Dead or partitioned worker: no records and no heartbeats for
          // the whole window. Abandon the connection and recover — a
          // stuck cell must not stall the grid forever.
          ++result_.stats.heartbeat_timeouts;
          fail_worker(s);
        }
      }
    }
  }

  void cleanup_workers() {
    for (auto& s : slots_) {
      if (!s.alive) continue;
      wire::write_frame(s.fd, wire::FrameType::Done, "");  // best effort
      drop(s);
    }
  }

  const std::string kernel_name_;
  const DsweepKernel kernel_;
  const Json& job_;
  const std::uint64_t cells_;
  const std::uint64_t base_seed_;
  const DsweepOptions& options_;
  const ShardRange range_;
  const std::string fingerprint_;
  DsweepResult& result_;
  std::uint64_t done_count_;
  std::uint64_t remaining_ = 0;
  std::uint64_t committed_this_run_ = 0;
  ManifestWriter& manifest_;
  const FaultAction* abort_after_ = nullptr;
  std::deque<std::uint64_t> pending_;
  std::vector<WorkerSlot> slots_;
  std::unique_ptr<Transport> transport_;
  std::string kernel_error_;
  bool interrupted_ = false;
};

}  // namespace

void dsweep_register_kernel(const std::string& name, DsweepKernel kernel) {
  std::lock_guard<std::mutex> lock(g_kernel_mutex);
  kernel_map()[name] = std::move(kernel);
}

Json DsweepStats::to_json() const {
  Json j;
  j["workers"] = static_cast<std::uint64_t>(workers);
  j["worker_restarts"] = static_cast<std::uint64_t>(worker_restarts);
  j["heartbeat_timeouts"] = static_cast<std::uint64_t>(heartbeat_timeouts);
  j["batches_rejected"] = static_cast<std::uint64_t>(batches_rejected);
  j["cells_reassigned"] = cells_reassigned;
  j["resumed_cells"] = resumed_cells;
  j["degraded_inprocess"] = degraded_inprocess;
  j["interrupted"] = interrupted;
  if (tcp) {
    // Only present on TCP runs: the default fork-backend schema stays
    // stable for bench_compare's structural drift check.
    j["tcp"] = true;
    j["connections_adopted"] = static_cast<std::uint64_t>(connections_adopted);
    j["connections_rejected"] = static_cast<std::uint64_t>(connections_rejected);
  }
  Json::Array per;
  for (const auto& w : per_worker) {
    Json e;
    e["slot"] = static_cast<std::uint64_t>(w.slot);
    e["restarts"] = static_cast<std::uint64_t>(w.restarts);
    e["cells_completed"] = w.cells_completed;
    per.push_back(e);
  }
  j["per_worker"] = Json(per);
  return j;
}

DsweepResult dsweep_run(const std::string& kernel, const Json& job,
                        std::uint64_t cells, std::uint64_t base_seed,
                        const DsweepOptions& options) {
  if (options.heartbeat_timeout_ms == 0) {
    throw std::invalid_argument("dsweep: worker timeout must be positive");
  }
  net::ignore_sigpipe();
  dsweep_register_builtin_kernels();
  DsweepKernel fn = find_kernel(kernel);

  // Validates the shard spec (throws on index >= count / count == 0).
  const ShardRange range = shard_range(cells, options.shard_index, options.shard_count);

  DsweepResult result;
  result.records.resize(cells);
  result.done.assign(cells, false);

  const std::string fingerprint = sweep_fingerprint(kernel, job, cells, base_seed);
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
      if (load.found && load.fingerprint_ok) {
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

  if (range.size() == 0 || done_count == range.size()) return result;

  Driver driver(kernel, std::move(fn), job, cells, base_seed, options, range,
                fingerprint, result, done_count, manifest);
  driver.run();
  return result;
}

DsweepResult dsweep_merge_shards(const std::string& kernel, const Json& job,
                                 std::uint64_t cells, std::uint64_t base_seed,
                                 const std::vector<std::string>& manifest_paths) {
  const std::string fingerprint = sweep_fingerprint(kernel, job, cells, base_seed);
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
// Worker entry points
// ---------------------------------------------------------------------------

int dsweep_worker_fd(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--worker-fd" && i + 1 < argc) return std::atoi(argv[i + 1]);
    if (arg.rfind("--worker-fd=", 0) == 0) return std::atoi(arg.c_str() + 12);
  }
  return -1;
}

std::string dsweep_worker_connect_arg(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) return argv[i + 1];
    if (arg.rfind("--connect=", 0) == 0) return arg.substr(10);
  }
  return "";
}

namespace {

/// How one serve session over one connection ended.
enum class ServeEnd {
  Done,       ///< driver sent Done: the run is complete
  ConnLost,   ///< EOF / write failure: the driver dropped us (or died)
  StreamBad,  ///< corrupt frame stream from the driver
  Rejected,   ///< driver refused the handshake (foreign run / version)
  Protocol,   ///< unexpected frame where JobConfig/Assign belonged
};

/// Serve one driver connection on \p fd: read the JobConfig, then loop on
/// Assign frames until Done or failure. \p fingerprint is updated with
/// the run fingerprint from the JobConfig (remote workers echo it in
/// reconnect Hellos); \p adopted is set once a JobConfig was received.
ServeEnd worker_serve(int fd, std::string* fingerprint, bool* adopted) {
  wire::FrameReader reader;
  wire::Frame frame;
  const WStatus first = wire::read_frame(fd, reader, &frame);
  if (first != WStatus::Frame) {
    return first == WStatus::Eof ? ServeEnd::ConnLost : ServeEnd::StreamBad;
  }
  if (frame.type == wire::FrameType::Reject) {
    std::fprintf(stderr, "dsweep worker: rejected by driver: %s\n",
                 frame.payload_str().c_str());
    return ServeEnd::Rejected;
  }
  if (frame.type != wire::FrameType::JobConfig) return ServeEnd::Protocol;
  if (adopted != nullptr) *adopted = true;

  DsweepKernel kernel;
  Json job;
  std::uint64_t base_seed = 0;
  unsigned hb_ms = 250;
  std::vector<FaultAction> faults;
  try {
    const Json cfg = Json::parse(frame.payload_str());
    job = cfg.at("job");
    base_seed = parse_u64_str(cfg.at("base_seed").as_string());
    hb_ms = static_cast<unsigned>(cfg.at("heartbeat_interval_ms").as_double());
    faults = FaultSpec::worker_actions_from_json(cfg.at("faults"));
    kernel = find_kernel(cfg.at("kernel").as_string());
    if (fingerprint != nullptr) *fingerprint = cfg.get_or("fingerprint", std::string());
  } catch (const std::exception& e) {
    wire::write_frame(fd, wire::FrameType::Error, e.what());
    return ServeEnd::Protocol;
  }
  const auto fault = [&faults](FaultAction::Kind kind) -> const FaultAction* {
    for (const auto& a : faults) {
      if (a.kind == kind) return &a;
    }
    return nullptr;
  };

  // Heartbeat thread: liveness signal decoupled from cell completion, so
  // the driver can tell "slow cell" from "hung worker". Serialized with
  // record writes — interleaving two frames would corrupt the stream.
  std::mutex write_mutex;
  std::atomic<bool> stop{false};
  std::atomic<bool> stall{false};
  std::thread heartbeat([&] {
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(std::max(hb_ms, 1u)));
      if (stop.load() || stall.load()) continue;
      std::lock_guard<std::mutex> lock(write_mutex);
      if (!wire::write_frame(fd, wire::FrameType::Heartbeat, "")) return;
    }
  });
  const auto finish = [&](ServeEnd end) {
    stop.store(true);
    heartbeat.join();
    return end;
  };

  std::uint64_t cells_done = 0;
  std::uint64_t batches_sent = 0;
  for (;;) {
    const WStatus st = wire::read_frame(fd, reader, &frame);
    if (st != WStatus::Frame) {
      return finish(st == WStatus::Eof ? ServeEnd::ConnLost : ServeEnd::StreamBad);
    }
    if (frame.type == wire::FrameType::Done) return finish(ServeEnd::Done);
    if (frame.type != wire::FrameType::Assign) return finish(ServeEnd::Protocol);
    const std::uint64_t cell = parse_u64_str(frame.payload_str());

    Json record;
    try {
      record = kernel(job, cell, job_seed(base_seed, cell));
    } catch (const std::exception& e) {
      Json err;
      err["cell"] = cell;
      err["error"] = std::string(e.what());
      std::lock_guard<std::mutex> lock(write_mutex);
      wire::write_frame(fd, wire::FrameType::Error, err.dump(0));
      continue;  // driver aborts the run on Error; stay responsive meanwhile
    }
    ++cells_done;

    Json out;
    out["cell"] = cell;
    out["record"] = record;
    auto bytes = wire::encode_frame(wire::FrameType::Record, out.dump(0));
    ++batches_sent;

    // --- injected batch faults --------------------------------------------
    if (const auto* a = fault(FaultAction::Kind::DelayBatch);
        a != nullptr && batches_sent == a->count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(a->delay_ms));
    }
    if (const auto* a = fault(FaultAction::Kind::CorruptBatch);
        a != nullptr && batches_sent == a->count) {
      // Flip one payload byte after the CRC was computed: the driver must
      // reject the batch, not merge garbage.
      bytes[wire::kHeaderBytes + (bytes.size() - wire::kHeaderBytes) / 2] ^= 0x5A;
    }
    if (const auto* a = fault(FaultAction::Kind::CorruptFrame);
        a != nullptr && batches_sent == a->count) {
      // Flip a bit in the header's type byte: only a CRC that covers the
      // header (wire v2) catches this one.
      bytes[4] ^= 0x10;
    }
    if (const auto* a = fault(FaultAction::Kind::TruncateBatch);
        a != nullptr && batches_sent == a->count) {
      std::lock_guard<std::mutex> lock(write_mutex);
      wire::write_all(fd, bytes.data(), bytes.size() / 2);
      std::_Exit(3);
    }
    {
      std::lock_guard<std::mutex> lock(write_mutex);
      if (!wire::write_all(fd, bytes.data(), bytes.size())) {
        return finish(ServeEnd::ConnLost);
      }
    }
    if (const auto* a = fault(FaultAction::Kind::KillAfterCells);
        a != nullptr && cells_done == a->count) {
      std::_Exit(4);  // hard crash, no cleanup — the recovery path's job
    }
    if (const auto* a = fault(FaultAction::Kind::StallAfterCells);
        a != nullptr && cells_done == a->count) {
      stall.store(true);  // heartbeats stop; hang until the driver SIGKILLs us
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    if (const auto* a = fault(FaultAction::Kind::DropConnAfter);
        a != nullptr && cells_done == a->count) {
      // Sever the link mid-run (dropped TCP session / yanked cable). The
      // driver reassigns; a remote worker reconnects with backoff.
      ::shutdown(fd, SHUT_RDWR);
      return finish(ServeEnd::ConnLost);
    }
    if (const auto* a = fault(FaultAction::Kind::StallConnAfter);
        a != nullptr && cells_done == a->count) {
      // Network partition as the driver sees it: the connection stays
      // open but heartbeats stop. Poll for the driver abandoning us (EOF
      // after its liveness timeout) so the partition heals into a
      // reconnect instead of a leaked process.
      stall.store(true);
      for (;;) {
        struct pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, 100) < 0 && errno != EINTR) {
          return finish(ServeEnd::ConnLost);
        }
        if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
          std::uint8_t junk[4096];
          const ssize_t n = ::read(fd, junk, sizeof junk);
          if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
            return finish(ServeEnd::ConnLost);
          }
        }
      }
    }
  }
}

}  // namespace

int dsweep_worker_main(int fd) {
  net::ignore_sigpipe();
  dsweep_register_builtin_kernels();
  switch (worker_serve(fd, nullptr, nullptr)) {
    case ServeEnd::Done: return 0;
    case ServeEnd::ConnLost: return 0;  // driver is gone; nothing left to do
    case ServeEnd::StreamBad: return 1;
    case ServeEnd::Rejected: return 5;
    case ServeEnd::Protocol: return 2;
  }
  return 2;
}

int dsweep_worker_connect(const std::string& hostport,
                          const WorkerConnectOptions& options) {
  net::ignore_sigpipe();
  dsweep_register_builtin_kernels();
  std::string fingerprint;
  unsigned attempt = 0;
  for (;;) {
    std::string err;
    const int fd = net::connect_tcp(hostport, options.connect_timeout_ms, &err);
    if (fd >= 0) {
      Json hello;
      hello["proto"] = static_cast<std::uint64_t>(wire::kProtocolVersion);
      hello["fingerprint"] = fingerprint;
      bool adopted = false;
      ServeEnd end = ServeEnd::ConnLost;
      if (wire::write_frame(fd, wire::FrameType::Hello, hello.dump(0))) {
        end = worker_serve(fd, &fingerprint, &adopted);
      }
      ::close(fd);
      switch (end) {
        case ServeEnd::Done: return 0;
        case ServeEnd::Rejected: return 5;  // the driver will never want us
        case ServeEnd::Protocol: return 2;
        case ServeEnd::ConnLost:
        case ServeEnd::StreamBad:
          // Dropped or garbled link: redial. Serving real work resets the
          // budget — it bounds consecutive failures, not total reconnects.
          if (adopted) attempt = 0;
          break;
      }
    }
    if (attempt >= options.max_retries) {
      std::fprintf(stderr, "dsweep worker: giving up on %s after %u attempts: %s\n",
                   hostport.c_str(), attempt + 1, err.empty() ? "link lost" : err.c_str());
      return 1;
    }
    const std::uint64_t delay_ms = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(options.backoff_base_ms) << attempt,
        options.backoff_cap_ms);
    ++attempt;
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
}

// ---------------------------------------------------------------------------
// FER sweeps on the distributed backend
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
  out.stats = std::move(res.stats);
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
  // Workers rebuild the device from the standard-config table; custom
  // DeviceConfigs can't ride the wire (grids name their devices anyway).
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
  // stamp existed), and the fer kernel refuses to compute such a job.
  job["channel_draws"] = static_cast<std::uint64_t>(channel::kDrawRevision);
  // Intra-frame slicing rides in the job config so a worker can recover
  // (cell, slice) from its expanded index and recompute the cell's own
  // seed — the driver's per-record seeds walk the expanded cell x slice
  // space. base_seed travels as a string: Json numbers are doubles and
  // would round 64-bit seeds. Both keys are omitted for frame_slices == 1,
  // so an unsliced run's fingerprint does not depend on slicing support.
  if (options.frame_slices > 1) {
    job["frame_slices"] = static_cast<std::uint64_t>(options.frame_slices);
    job["base_seed"] = std::to_string(options.sweep.base_seed);
  }
  return job;
}

namespace {

Json fer_scenario_to_json(const Scenario& scenario) {
  Json sc;
  sc["device"] = scenario.device;
  sc["mapping_spec"] = scenario.mapping_spec;
  sc["interleaver"] = scenario.interleaver;
  sc["channel"] = scenario.channel;
  sc["rs_k"] = static_cast<std::uint64_t>(scenario.rs_k);
  sc["symbols_per_burst"] = scenario.symbols_per_burst;
  sc["links"] = static_cast<std::uint64_t>(scenario.links);
  return sc;
}

}  // namespace

Json fer_cell_to_json(const Scenario& scenario, const PipelineResult& result) {
  Json sc = fer_scenario_to_json(scenario);

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

Json fer_slice_to_json(const Scenario& scenario, const PipelineSliceResult& s) {
  Json r;
  r["index"] = static_cast<std::uint64_t>(s.slice);
  r["count"] = static_cast<std::uint64_t>(s.num_slices);
  r["frames"] = s.frames;
  r["channel_symbols"] = s.channel_symbols;
  r["channel_symbol_errors"] = s.channel_symbol_errors;
  r["workspace_peak_bytes"] = s.workspace_peak_bytes;
  r["host_ns"] = s.host_ns;
  // Flat (frame, input_index, flip) triplets. Input indices are frame
  // positions (< 2^53 by a wide margin), so double-backed Json numbers
  // carry them exactly.
  Json::Array hits;
  hits.reserve(s.hits.size() * 3);
  for (const StreamHit& h : s.hits) {
    hits.push_back(Json(h.frame));
    hits.push_back(Json(h.input_index));
    hits.push_back(Json(static_cast<std::uint64_t>(h.flip)));
  }
  r["hits"] = Json(std::move(hits));

  Json j;
  j["scenario"] = fer_scenario_to_json(scenario);
  j["slice"] = r;
  return j;
}

PipelineSliceResult fer_slice_from_json(const Json& record) {
  const Json& r = record.at("slice");
  const auto u64 = [&r](const char* key) {
    return static_cast<std::uint64_t>(r.at(key).as_double());
  };
  PipelineSliceResult s;
  s.slice = static_cast<unsigned>(u64("index"));
  s.num_slices = static_cast<unsigned>(u64("count"));
  s.frames = u64("frames");
  s.channel_symbols = u64("channel_symbols");
  s.channel_symbol_errors = u64("channel_symbol_errors");
  s.workspace_peak_bytes = u64("workspace_peak_bytes");
  s.host_ns = u64("host_ns");
  const auto& hits = r.at("hits").as_array();
  if (hits.size() % 3 != 0) {
    throw std::invalid_argument("fer slice record: torn hits array");
  }
  s.hits.reserve(hits.size() / 3);
  for (std::size_t i = 0; i < hits.size(); i += 3) {
    StreamHit h;
    h.frame = static_cast<std::uint64_t>(hits[i].as_double());
    h.input_index = static_cast<std::uint64_t>(hits[i + 1].as_double());
    h.flip = static_cast<std::uint8_t>(hits[i + 2].as_double());
    s.hits.push_back(h);
  }
  return s;
}

namespace {

/// Merge an expanded cell x slice run back to one FerCell per scenario:
/// streaming cells combine their slices (channel events counted per code
/// word, DRAM phases run here — both deterministic), row-aligned cells
/// were computed whole by their slice 0. A cell is done only when every
/// one of its slices is.
FerDistResult fer_dist_from_sliced(const SweepGrid& grid,
                                   const FerSweepOptions& options,
                                   DsweepResult res) {
  const unsigned S = options.frame_slices;
  const std::uint64_t cells = grid.size();
  FerDistResult out;
  out.stats = std::move(res.stats);
  out.done.assign(cells, false);
  out.cells.resize(cells);
  std::map<unsigned, fec::ReedSolomon> codecs;
  for (std::uint64_t c = 0; c < cells; ++c) {
    bool all = true;
    for (unsigned s = 0; s < S && all; ++s) all = res.done[c * S + s];
    if (!all) continue;
    const Json& first = res.records[c * S];
    if (first.contains("slice")) {
      std::vector<PipelineSliceResult> slices;
      slices.reserve(S);
      for (unsigned s = 0; s < S; ++s) {
        slices.push_back(fer_slice_from_json(res.records[c * S + s]));
      }
      const Scenario scenario = grid.cell(c);
      const PipelineConfig config = fer_cell_config(
          options.base, scenario, job_seed(options.sweep.base_seed, c));
      auto it = codecs.find(scenario.rs_k);
      if (it == codecs.end()) {
        it = codecs.try_emplace(scenario.rs_k, options.base.rs_n, scenario.rs_k)
                 .first;
      }
      FerCell cell;
      cell.scenario = scenario;
      cell.result = combine_pipeline_slices(config, it->second, std::move(slices));
      if (cell.result.dram_ran) {
        cell.dram_bursts = cell.result.dram.total_bursts();
        cell.dram_sched_ns_per_pick = cell.result.dram.sched_ns_per_pick();
      }
      out.cells[c] = std::move(cell);
    } else {
      out.cells[c] = fer_cell_from_json(first);
    }
    out.done[c] = true;
  }
  return out;
}

}  // namespace

FerDistResult run_fer_sweep_dist(const SweepGrid& grid, const FerSweepOptions& options,
                                 DsweepOptions dist) {
  dist.threads = options.sweep.threads;
  const Json job = fer_job_config(grid, options);
  const unsigned S = options.frame_slices > 1 ? options.frame_slices : 1;
  DsweepResult res =
      dsweep_run("fer", job, grid.size() * S, options.sweep.base_seed, dist);
  if (S > 1) return fer_dist_from_sliced(grid, options, std::move(res));
  return fer_dist_from_dsweep(std::move(res));
}

FerDistResult run_fer_merge_shards(const SweepGrid& grid, const FerSweepOptions& options,
                                   const std::vector<std::string>& manifest_paths) {
  const Json job = fer_job_config(grid, options);
  const unsigned S = options.frame_slices > 1 ? options.frame_slices : 1;
  DsweepResult res = dsweep_merge_shards("fer", job, grid.size() * S,
                                         options.sweep.base_seed, manifest_paths);
  if (S > 1) return fer_dist_from_sliced(grid, options, std::move(res));
  return fer_dist_from_dsweep(std::move(res));
}

}  // namespace tbi::sim
