/// \file controller.hpp
/// Command-level DRAM memory controller / timing model.
///
/// The controller consumes burst requests from a RequestStream through a
/// fixed-depth scheduling queue, chooses the next request with FR-FCFS
/// (row hits first, then oldest) or plain FCFS, and schedules the ACT /
/// PRE / RD / WR / REF commands needed at their earliest legal issue time
/// under the JEDEC constraints of dram/timing.hpp. Time is continuous
/// integer picoseconds; there is no cycle stepping, which makes the model
/// fast enough (millions of bursts per second) to reproduce all Table I
/// configurations in seconds.
///
/// Decomposed FR-FCFS pick (design note). The pick serves the queued
/// request whose burst reaches the data bus first, the oldest on ties.
/// Replanning the whole queue per burst is O(queue_depth); the scheduler
/// instead rests on two facts of the timing model:
///
///  1. Class sharing. A request's Plan depends only on its bank, whether
///     it targets the bank's open row, and its direction; never on its
///     row or column. All queued requests of one such class share one
///     data_start, and only the oldest of them can win. The controller
///     keeps the oldest queued slot of each bank's <= 4 classes (open row
///     or other row, x read or write; every row of a closed bank is an
///     other row). A newcomer only fills an empty class; a dequeued head
///     is replaced by the next classmate in its bank's bin; an open-row
///     change (ACT, PRE, refresh close) refills the bank's heads in one
///     bin walk that stops once all four heads are found (the two other-
///     row ones on a closed bank) or the bin ends. There is no count of
///     queued requests per row: a bin holds a bank's share of the queue
///     (5.0 walk steps per refill on the mixed streams, 5.1 on the Table I
///     phases).
///  2. Decomposition. Every term of plan_class() is a max of (state +
///     constant), so data_start = max(L + c, G). L reads only the bank:
///     rdwr_ready for an open-row hit; for an ACT, act_ready, behind the
///     PRE chain max(pre_ready, last_act + tRAS) + tRP when a row is open.
///     c is CL or CWL, plus tRCD when an ACT is needed. G holds the rank-
///     and group-global floors: tCCD_S/L, tWTR, the bus and tRTW, plus
///     tRRD/tFAW + tRCD when an ACT is needed. L + c is cached per (bank,
///     class) and recomputed when the bank's timing state changes; G is
///     class_floor(), evaluated per pick for the classes the pick tests.
///
/// data_start never precedes bus_free_, so the oldest request landing
/// there wins outright. The pick tests two such exits before it folds,
/// each at the cost of one data_start, and plans only the winner:
///
///  - Head exit: the FIFO head lands on bus_free_.
///  - Direction exit: every request older than the other direction's
///    oldest one has the head's direction. When bus turnaround keeps
///    that whole direction off bus_free_ (reads while last_wr_data_end_
///    + tWTR + CL > bus_free_; writes after a read while
///    last_rd_data_end_ + tRTW_bubble > bus_free_), the other
///    direction's oldest request wins if it lands on bus_free_.
///    Single-direction phases never take it.
///
/// Otherwise the pick folds (data_start, seq) over the occupied class
/// heads. Measured on the paper's full-size streams (20 Table I cells,
/// PhaseStats::pick_candidates): the head exit resolves 50% of the
/// separate-phase picks, and the two exits 46% of the double-buffered
/// mixed ones (18% at the head, 28% by direction); a pick evaluates 8.5
/// data_starts on average over the phases (1.2-17 per cell) and 12.2 over
/// the mixed streams (1.8-26 per cell). The command stream is identical
/// to the replan-everything reference (Policy::FrFcfsOracle);
/// tests/dram/test_scheduler_equivalence.cpp checks it command for
/// command on random and on the paper's streams.
///
/// Fidelity notes (DESIGN.md §5): per-bank row state, bank-group-aware
/// tCCD/tRRD, the four-activate window, rank-level write-to-read
/// turnaround, data-bus serialization, and all-bank / per-bank / same-bank
/// refresh are modeled; command-bus slot contention and PHY effects are
/// not. Every scheduled command can be streamed into a TimingChecker that
/// independently re-validates the protocol.
#pragma once

#include <array>
#include <limits>
#include <optional>
#include <vector>

#include "dram/standards.hpp"
#include "dram/stats.hpp"
#include "dram/stream.hpp"
#include "dram/types.hpp"

namespace tbi::dram {

/// Observer for every command the controller schedules (checker, traces).
class CommandObserver {
 public:
  virtual ~CommandObserver() = default;
  virtual void on_command(const Command& cmd) = 0;
};

struct ControllerConfig {
  /// FrFcfs: earliest-data-slot greedy over the whole queue — the request
  /// whose burst can reach the data bus first is served next (ties go to
  /// the oldest). This emulates a cycle-accurate FR-FCFS controller: row
  /// hits naturally overtake conflicting requests while a conflict whose
  /// PRE/ACT chain has completed costs nothing extra and regains priority
  /// through its age. Implemented incrementally (see the design note in
  /// the file header); FrFcfsOracle is the brute-force replan-everything
  /// reference with the same observable behavior, kept for validation.
  /// Fcfs: strict arrival order (baseline for tests/ablation).
  enum class Policy { FrFcfs, Fcfs, FrFcfsOracle };

  unsigned queue_depth = 64;
  Policy policy = Policy::FrFcfs;
  /// Unset: the device's default_refresh.
  std::optional<RefreshMode> refresh_mode;

  friend bool operator==(const ControllerConfig&, const ControllerConfig&) = default;
};

class Controller {
 public:
  Controller(DeviceConfig device, ControllerConfig config);

  /// Drain \p stream completely and return the phase statistics.
  /// Controller state (open rows, clock, refresh phase) carries over to
  /// the next call, so write phase and read phase chain realistically.
  PhaseStats run_phase(RequestStream& stream, std::string label);

  /// Attach an observer receiving every scheduled command (or nullptr).
  void set_observer(CommandObserver* observer) { observer_ = observer; }

  const DeviceConfig& device() const { return device_; }
  RefreshMode refresh_mode() const { return refresh_mode_; }

  /// Current simulated time (end of last scheduled data burst).
  Ps now() const { return now_; }

 private:
  static constexpr Ps kNegInf = std::numeric_limits<Ps>::min() / 4;
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
  /// open_row_ entry of a closed bank; no request row equals it (run_phase
  /// rejects rows >= rows_per_bank).
  static constexpr std::uint32_t kNoRow = std::numeric_limits<std::uint32_t>::max();

  struct Bank {
    Ps last_act = kNegInf;      ///< issue time of last ACT
    Ps act_ready = 0;           ///< earliest next ACT (tRP / tRC / refresh)
    Ps rdwr_ready = 0;          ///< earliest CAS after ACT (tRCD)
    Ps pre_ready = 0;           ///< earliest PRE (tRAS / tRTP / tWR)
    Ps ref_ready = 0;           ///< earliest REF touching this bank (tRP after PRE)
  };

  /// Fully computed earliest-legal schedule for one request.
  struct Plan {
    RowBufferResult kind = RowBufferResult::Hit;
    Ps pre_t = 0;   ///< valid when kind == Conflict
    Ps act_t = 0;   ///< valid when kind != Hit
    Ps cas_t = 0;
    Ps data_start = 0;
    Ps data_end = 0;
  };

  /// Per-bank view of the queue: an intrusive arrival-ordered list of the
  /// bank's queued slots.
  struct Bin {
    std::uint32_t head = kNoSlot;          ///< oldest queued slot of this bank
    std::uint32_t tail = kNoSlot;
  };

  /// The rank-global terms of the floor G, read once per pick.
  struct PickTerms {
    Ps cas_any = 0;  ///< tCCD_S after the last CAS
    Ps act_any = 0;  ///< tRRD_S and tFAW after the last ACTs
    Ps wtr = 0;      ///< tWTR after the last write burst
    Ps bus_w = 0;    ///< bus floor of a write: bus_free_, or the RD->WR bubble
  };

  RowBufferResult classify(const Request& req) const;
  /// Pick class of a queued request under its bank's current open row:
  /// (other row ? 2 : 0) + is_write, where every row of a closed bank is
  /// an other row. Hit classes (0, 1) need no ACT; 2 and 3 need one.
  unsigned class_of(const Request& req) const {
    return (open_row_[req.addr.bank] == req.addr.row ? 0u : 2u) + (req.is_write ? 1u : 0u);
  }
  /// Earliest-legal Plan for any (bank, outcome, direction) class; the
  /// single source of scheduling truth shared by all policies.
  Plan plan_class(std::uint32_t bank_id, RowBufferResult kind, bool is_write) const;
  Plan plan_request(const Request& req) const;
  void commit(const Request& req, const Plan& plan, PhaseStats& stats);
  void refresh_if_due(PhaseStats& stats);
  void do_refresh(PhaseStats& stats);
  Ps close_bank(std::uint32_t bank_id, PhaseStats& stats);
  void note_act_rate(Ps t, unsigned bank_group);
  Ps earliest_act_after(Ps floor, std::uint32_t bank_id) const;
  void emit(const Command& cmd);

  // Queue management (slot arena + arrival FIFO + per-bank bins).
  std::uint32_t enqueue(const Request& req);
  void dequeue(std::uint32_t slot_id);
  /// Re-derive a bank's class heads after its open row changed.
  void refill_heads(std::uint32_t bank_id);
  /// Point class head \p index at \p slot_id (kNoSlot empties it) and
  /// keep head_mask_ and head_seq_ in step.
  void set_head(std::uint32_t index, std::uint32_t slot_id);
  /// Recompute a bank's local_ entries after its timing state changed.
  void update_local(std::uint32_t bank_id);
  PickTerms pick_terms() const;
  /// G of data_start for class \p cls in bank group \p group: the one
  /// floor formula the exits and the fold share.
  Ps class_floor(const PickTerms& terms, unsigned group, unsigned cls) const;
  /// data_start of queued slot \p slot_id, max(L + c, G) without a Plan.
  Ps data_start_of(const PickTerms& terms, std::uint32_t slot_id) const;
  // Each pick adds its data_start evaluations to `candidates`.
  std::uint32_t pick_fr_fcfs(Plan& plan_out, std::uint64_t& candidates);
  std::uint32_t pick_fr_fcfs_oracle(Plan& plan_out, std::uint64_t& candidates) const;

  DeviceConfig device_;
  ControllerConfig config_;
  RefreshMode refresh_mode_;
  CommandObserver* observer_ = nullptr;

  std::vector<Bank> banks_;
  std::vector<std::uint32_t> open_row_; ///< per bank: the open row, or kNoRow
  std::vector<Ps> last_act_in_group_;   ///< per bank group, for tRRD_L
  std::vector<Ps> last_cas_in_group_;   ///< per bank group, for tCCD_L
  std::vector<std::uint32_t> group_of_; ///< bank id -> bank group (no div on hot path)
  Ps last_act_any_ = kNegInf;
  Ps last_cas_any_ = kNegInf;
  // Four-activate window as a fixed ring (ACT times are strictly
  // increasing, so the oldest of the last four is faw_[faw_head_]).
  std::array<Ps, 4> faw_{};
  unsigned faw_head_ = 0;
  unsigned faw_len_ = 0;
  Ps bus_free_ = 0;
  Ps last_wr_data_end_ = kNegInf;
  Ps last_rd_data_end_ = kNegInf;
  bool last_burst_was_write_ = false;
  Ps now_ = 0;

  Ps next_refresh_ = 0;
  Ps refresh_interval_ = 0;
  unsigned refresh_groups_ = 1;
  unsigned next_refresh_group_ = 0;
  Ps last_refresh_ = kNegInf;

  // Scheduling queue: a fixed arena of requests threaded onto two
  // intrusive doubly-linked lists — the global arrival FIFO and the
  // owning bank's bin — so enqueue, dequeue and in-order iteration are
  // all O(1) with no element movement at any queue depth.
  std::vector<Request> slots_;               ///< fixed arena of queued requests
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> fifo_next_, fifo_prev_;
  std::vector<std::uint32_t> bank_next_, bank_prev_;
  std::uint32_t fifo_head_ = kNoSlot;        ///< oldest queued slot
  std::uint32_t fifo_tail_ = kNoSlot;
  /// Oldest queued slot per direction (index is_write), kNoSlot when none.
  std::array<std::uint32_t, 2> dir_head_{kNoSlot, kNoSlot};
  std::vector<Bin> bins_;                    ///< one per bank
  /// Oldest queued slot per (bank, class) at index bank * 4 + class_of(),
  /// kNoSlot when the class is empty (see the header design note).
  std::vector<std::uint32_t> class_head_;
  /// seq of each occupied class head, indexed like class_head_, so the
  /// fold reads one dense array instead of the slot arena.
  std::vector<std::uint64_t> head_seq_;
  /// Bitmask of the occupied class_head_ entries (64 per word): the pick
  /// folds over the set bits only.
  std::vector<std::uint64_t> head_mask_;
  /// Bank-local term L + c of data_start per (bank, class), indexed like
  /// class_head_; refreshed whenever the bank's timing state changes.
  std::vector<Ps> local_;
  /// Pick scratch: the group-global floor G at index group * 4 + class.
  /// Bank groups are bank % bank_groups, a power of two, so a class head's
  /// entry is its class_head_ index masked by group_floor_.size() - 1.
  std::vector<Ps> group_floor_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tbi::dram
