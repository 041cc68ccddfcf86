#include "dram/controller.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "perf/counters.hpp"

namespace tbi::dram {

Controller::Controller(DeviceConfig device, ControllerConfig config)
    : device_(std::move(device)),
      config_(config),
      refresh_mode_(config.refresh_mode.value_or(device_.default_refresh)) {
  device_.validate();
  if (config_.queue_depth == 0) {
    throw std::invalid_argument("Controller: queue_depth must be > 0");
  }
  banks_.resize(device_.banks);
  open_row_.assign(device_.banks, kNoRow);
  last_act_in_group_.assign(device_.bank_groups, kNegInf);
  last_cas_in_group_.assign(device_.bank_groups, kNegInf);
  group_of_.resize(device_.banks);
  for (std::uint32_t b = 0; b < device_.banks; ++b) {
    group_of_[b] = b % device_.bank_groups;
  }
  group_floor_.assign(static_cast<std::size_t>(device_.bank_groups) * 4, 0);

  slots_.resize(config_.queue_depth);
  free_slots_.reserve(config_.queue_depth);
  for (std::uint32_t id = config_.queue_depth; id-- > 0;) free_slots_.push_back(id);
  fifo_next_.assign(config_.queue_depth, kNoSlot);
  fifo_prev_.assign(config_.queue_depth, kNoSlot);
  bank_next_.assign(config_.queue_depth, kNoSlot);
  bank_prev_.assign(config_.queue_depth, kNoSlot);
  bins_.resize(device_.banks);
  class_head_.assign(static_cast<std::size_t>(device_.banks) * 4, kNoSlot);
  head_seq_.assign(class_head_.size(), 0);
  head_mask_.assign((class_head_.size() + 63) / 64, 0);
  local_.resize(class_head_.size());
  for (std::uint32_t b = 0; b < device_.banks; ++b) update_local(b);

  switch (refresh_mode_) {
    case RefreshMode::Disabled:
      refresh_interval_ = 0;
      refresh_groups_ = 1;
      break;
    case RefreshMode::AllBank:
      refresh_interval_ = device_.timing.tREFI;
      refresh_groups_ = 1;
      break;
    case RefreshMode::PerBank:
      refresh_groups_ = device_.banks;
      refresh_interval_ = device_.timing.tREFI / refresh_groups_;
      break;
    case RefreshMode::SameBank:
      refresh_groups_ = device_.banks_per_group();
      refresh_interval_ = device_.timing.tREFI / refresh_groups_;
      break;
  }
  // A refresh cadence whose command interval is not clearly longer than
  // the refresh cycle time can never keep up — the backlog grows without
  // bound (e.g. hypothetical DDR5 per-bank refresh: tREFI/32 < tRFCpb,
  // which is why the standard only defines REFsb). Reject it up front.
  if (refresh_mode_ != RefreshMode::Disabled) {
    const Ps cycle = refresh_mode_ == RefreshMode::AllBank
                         ? device_.timing.tRFC_ab
                         : device_.timing.tRFC_grp;
    if (refresh_interval_ <= cycle) {
      throw std::invalid_argument("Controller: refresh mode " +
                                  std::string(to_string(refresh_mode_)) +
                                  " is unsustainable on " + device_.name);
    }
  }
  next_refresh_ = refresh_interval_;
}

void Controller::emit(const Command& cmd) {
  if (observer_ != nullptr) observer_->on_command(cmd);
}

RowBufferResult Controller::classify(const Request& req) const {
  const std::uint32_t open = open_row_[req.addr.bank];
  if (open == kNoRow) return RowBufferResult::Miss;
  return open == req.addr.row ? RowBufferResult::Hit : RowBufferResult::Conflict;
}

Ps Controller::earliest_act_after(Ps floor, std::uint32_t bank_id) const {
  const unsigned bg = group_of_[bank_id];
  Ps t = floor;
  t = std::max(t, last_act_any_ + device_.timing.tRRD_S);
  t = std::max(t, last_act_in_group_[bg] + device_.timing.tRRD_L);
  if (faw_len_ == 4) {
    t = std::max(t, faw_[faw_head_] + device_.timing.tFAW);
  }
  return t;
}

Controller::Plan Controller::plan_class(std::uint32_t bank_id, RowBufferResult kind,
                                        bool is_write) const {
  const unsigned bg = group_of_[bank_id];
  const Bank& b = banks_[bank_id];
  const TimingParams& t = device_.timing;

  Plan plan;
  plan.kind = kind;

  Ps rdwr_ready = b.rdwr_ready;
  switch (kind) {
    case RowBufferResult::Hit:
      break;
    case RowBufferResult::Miss: {
      plan.act_t = earliest_act_after(b.act_ready, bank_id);
      rdwr_ready = plan.act_t + t.tRCD;
      break;
    }
    case RowBufferResult::Conflict: {
      plan.pre_t = std::max(b.pre_ready, b.last_act + t.tRAS);
      const Ps act_floor = std::max(b.act_ready, plan.pre_t + t.tRP);
      plan.act_t = earliest_act_after(act_floor, bank_id);
      rdwr_ready = plan.act_t + t.tRCD;
      break;
    }
  }

  Ps cas_t = rdwr_ready;
  cas_t = std::max(cas_t, last_cas_any_ + t.tCCD_S);
  cas_t = std::max(cas_t, last_cas_in_group_[bg] + t.tCCD_L);
  if (!is_write) {
    cas_t = std::max(cas_t, last_wr_data_end_ + t.tWTR);  // rank-level W->R
  }

  const Ps cas_latency = is_write ? t.CWL : t.CL;
  Ps data_start = cas_t + cas_latency;
  Ps bus_ready = bus_free_;
  if (is_write && !last_burst_was_write_) {
    bus_ready = std::max(bus_ready, last_rd_data_end_ + t.tRTW_bubble);
  }
  if (data_start < bus_ready) {
    cas_t += bus_ready - data_start;
    data_start = bus_ready;
  }

  plan.cas_t = cas_t;
  plan.data_start = data_start;
  plan.data_end = data_start + device_.burst_time;
  return plan;
}

Controller::Plan Controller::plan_request(const Request& req) const {
  return plan_class(req.addr.bank, classify(req), req.is_write);
}

Ps Controller::close_bank(std::uint32_t bank_id, PhaseStats& stats) {
  Bank& b = banks_[bank_id];
  assert(open_row_[bank_id] != kNoRow);
  const Ps pre_t = std::max(b.pre_ready, b.last_act + device_.timing.tRAS);
  open_row_[bank_id] = kNoRow;
  refill_heads(bank_id);
  b.act_ready = std::max(b.act_ready, pre_t + device_.timing.tRP);
  b.ref_ready = std::max(b.ref_ready, pre_t + device_.timing.tRP);
  update_local(bank_id);
  ++stats.precharges;
  emit(Command{.kind = CommandKind::Pre, .issue = pre_t, .bank = bank_id});
  return pre_t;
}

void Controller::note_act_rate(Ps t, unsigned bank_group) {
  last_act_any_ = t;
  last_act_in_group_[bank_group] = t;
  if (faw_len_ < 4) {
    faw_[(faw_head_ + faw_len_) & 3] = t;
    ++faw_len_;
  } else {
    faw_[faw_head_] = t;
    faw_head_ = (faw_head_ + 1) & 3;
  }
}

void Controller::commit(const Request& req, const Plan& plan, PhaseStats& stats) {
  const std::uint32_t bank_id = req.addr.bank;
  const unsigned bg = group_of_[bank_id];
  Bank& b = banks_[bank_id];
  const TimingParams& t = device_.timing;

  switch (plan.kind) {
    case RowBufferResult::Hit:
      ++stats.row_hits;
      break;
    case RowBufferResult::Conflict: {
      ++stats.row_conflicts;
      b.act_ready = std::max(b.act_ready, plan.pre_t + t.tRP);
      b.ref_ready = std::max(b.ref_ready, plan.pre_t + t.tRP);
      ++stats.precharges;
      emit(Command{.kind = CommandKind::Pre, .issue = plan.pre_t, .bank = bank_id});
      [[fallthrough]];
    }
    case RowBufferResult::Miss: {
      if (plan.kind == RowBufferResult::Miss) ++stats.row_misses;
      open_row_[bank_id] = req.addr.row;
      refill_heads(bank_id);
      b.last_act = plan.act_t;
      b.act_ready = plan.act_t + t.tRC;
      b.rdwr_ready = plan.act_t + t.tRCD;
      b.pre_ready = plan.act_t + t.tRAS;
      note_act_rate(plan.act_t, bg);
      ++stats.activates;
      emit(Command{.kind = CommandKind::Act, .issue = plan.act_t, .bank = bank_id,
                   .row = req.addr.row});
      break;
    }
  }

  last_cas_any_ = plan.cas_t;
  last_cas_in_group_[bg] = plan.cas_t;
  bus_free_ = plan.data_end;
  last_burst_was_write_ = req.is_write;
  if (req.is_write) {
    last_wr_data_end_ = plan.data_end;
    b.pre_ready = std::max(b.pre_ready, plan.data_end + t.tWR);
    ++stats.writes;
  } else {
    last_rd_data_end_ = plan.data_end;
    b.pre_ready = std::max(b.pre_ready, plan.cas_t + t.tRTP);
    ++stats.reads;
  }
  update_local(bank_id);

  ++stats.bursts;
  stats.busy += device_.burst_time;
  if (stats.bursts == 1) stats.start = plan.data_start;
  stats.end = plan.data_end;
  now_ = std::max(now_, plan.data_end);

  emit(Command{.kind = req.is_write ? CommandKind::Wr : CommandKind::Rd,
               .issue = plan.cas_t,
               .bank = bank_id,
               .row = req.addr.row,
               .column = req.addr.column,
               .data_start = plan.data_start,
               .data_end = plan.data_end});
}

std::uint32_t Controller::enqueue(const Request& req) {
  assert(!free_slots_.empty());
  const std::uint32_t id = free_slots_.back();
  free_slots_.pop_back();
  slots_[id] = req;

  fifo_prev_[id] = fifo_tail_;
  fifo_next_[id] = kNoSlot;
  if (fifo_tail_ != kNoSlot) {
    fifo_next_[fifo_tail_] = id;
  } else {
    fifo_head_ = id;
  }
  fifo_tail_ = id;

  Bin& bin = bins_[req.addr.bank];
  bank_prev_[id] = bin.tail;
  bank_next_[id] = kNoSlot;
  if (bin.tail != kNoSlot) {
    bank_next_[bin.tail] = id;
  } else {
    bin.head = id;
  }
  bin.tail = id;
  // The newcomer is the youngest, so it only fills an empty head.
  const std::uint32_t index = req.addr.bank * 4 + class_of(req);
  if (class_head_[index] == kNoSlot) set_head(index, id);
  if (dir_head_[req.is_write] == kNoSlot) dir_head_[req.is_write] = id;
  return id;
}

void Controller::dequeue(std::uint32_t slot_id) {
  const std::uint32_t fn = fifo_next_[slot_id];
  const std::uint32_t fp = fifo_prev_[slot_id];
  (fp != kNoSlot ? fifo_next_[fp] : fifo_head_) = fn;
  (fn != kNoSlot ? fifo_prev_[fn] : fifo_tail_) = fp;

  const Request& req = slots_[slot_id];
  Bin& bin = bins_[req.addr.bank];
  const std::uint32_t bn = bank_next_[slot_id];
  const std::uint32_t bp = bank_prev_[slot_id];
  (bp != kNoSlot ? bank_next_[bp] : bin.head) = bn;
  (bn != kNoSlot ? bank_prev_[bn] : bin.tail) = bp;
  const unsigned c = class_of(req);
  const std::uint32_t index = req.addr.bank * 4 + c;
  if (class_head_[index] == slot_id) {  // the next classmate takes over
    std::uint32_t next = bn;
    while (next != kNoSlot && class_of(slots_[next]) != c) next = bank_next_[next];
    set_head(index, next);
  }
  if (dir_head_[req.is_write] == slot_id) {  // and the next of its direction
    std::uint32_t next = fn;
    while (next != kNoSlot && slots_[next].is_write != req.is_write) next = fifo_next_[next];
    dir_head_[req.is_write] = next;
  }

  free_slots_.push_back(slot_id);
}

void Controller::set_head(std::uint32_t index, std::uint32_t slot_id) {
  class_head_[index] = slot_id;
  const std::uint64_t bit = std::uint64_t{1} << (index & 63);
  if (slot_id == kNoSlot) {
    head_mask_[index >> 6] &= ~bit;
  } else {
    head_mask_[index >> 6] |= bit;
    head_seq_[index] = slots_[slot_id].seq;
  }
}

void Controller::update_local(std::uint32_t bank_id) {
  const Bank& b = banks_[bank_id];
  const TimingParams& t = device_.timing;
  // L: rdwr_ready for a hit; for an ACT, act_ready behind the PRE chain
  // when a row is open.
  const Ps act = open_row_[bank_id] != kNoRow
                     ? std::max(b.act_ready, std::max(b.pre_ready, b.last_act + t.tRAS) + t.tRP)
                     : b.act_ready;
  Ps* local = &local_[static_cast<std::size_t>(bank_id) * 4];
  local[0] = b.rdwr_ready + t.CL;
  local[1] = b.rdwr_ready + t.CWL;
  local[2] = act + t.tRCD + t.CL;
  local[3] = act + t.tRCD + t.CWL;
}

void Controller::refill_heads(std::uint32_t bank_id) {
  // Walk the bin until every class that can be populated has its oldest
  // member: all four, or the two other-row ones when the bank is closed.
  std::array<std::uint32_t, 4> heads{kNoSlot, kNoSlot, kNoSlot, kNoSlot};
  unsigned missing = open_row_[bank_id] == kNoRow ? 0b1100u : 0b1111u;
  for (std::uint32_t id = bins_[bank_id].head; id != kNoSlot && missing != 0;
       id = bank_next_[id]) {
    const unsigned c = class_of(slots_[id]);
    if ((missing & (1u << c)) == 0) continue;
    heads[c] = id;
    missing &= ~(1u << c);
  }
  for (unsigned c = 0; c < 4; ++c) set_head(bank_id * 4 + c, heads[c]);
}

Controller::PickTerms Controller::pick_terms() const {
  const TimingParams& t = device_.timing;
  PickTerms p;
  p.cas_any = last_cas_any_ + t.tCCD_S;
  p.act_any = last_act_any_ + t.tRRD_S;
  if (faw_len_ == 4) p.act_any = std::max(p.act_any, faw_[faw_head_] + t.tFAW);
  p.wtr = last_wr_data_end_ + t.tWTR;
  p.bus_w = last_burst_was_write_ ? bus_free_
                                  : std::max(bus_free_, last_rd_data_end_ + t.tRTW_bubble);
  return p;
}

Ps Controller::class_floor(const PickTerms& p, unsigned group, unsigned cls) const {
  // The CAS-rate, W->R and bus floors, plus the ACT-rate floor + tRCD for
  // the classes that need an ACT.
  const TimingParams& t = device_.timing;
  Ps cas = std::max(p.cas_any, last_cas_in_group_[group] + t.tCCD_L);
  if (cls >= 2) {
    cas = std::max(cas, std::max(p.act_any, last_act_in_group_[group] + t.tRRD_L) + t.tRCD);
  }
  return (cls & 1) != 0 ? std::max(cas + t.CWL, p.bus_w)
                        : std::max(std::max(cas, p.wtr) + t.CL, bus_free_);
}

Ps Controller::data_start_of(const PickTerms& terms, std::uint32_t slot_id) const {
  const Request& req = slots_[slot_id];
  const unsigned c = class_of(req);
  return std::max(local_[req.addr.bank * 4 + c],
                  class_floor(terms, group_of_[req.addr.bank], c));
}

std::uint32_t Controller::pick_fr_fcfs(Plan& plan_out, std::uint64_t& candidates) {
  assert(fifo_head_ != kNoSlot);
  const TimingParams& t = device_.timing;
  const PickTerms terms = pick_terms();
  // No Plan starts before bus_free_, so the oldest request landing there
  // wins outright: nothing is earlier and it wins every tie by age.
  std::uint32_t best = fifo_head_;
  ++candidates;
  if (data_start_of(terms, best) <= bus_free_) {
    plan_out = plan_request(slots_[best]);
    return best;
  }
  // Direction exit: everything older than the other direction's oldest
  // request has the head's direction, which bus turnaround may hold off
  // bus_free_ as a whole.
  const bool head_write = slots_[best].is_write;
  const std::uint32_t other = dir_head_[head_write ? 0 : 1];
  const bool held = head_write ? terms.bus_w > bus_free_ : terms.wtr + t.CL > bus_free_;
  if (other != kNoSlot && held) {
    ++candidates;
    if (data_start_of(terms, other) <= bus_free_) {
      plan_out = plan_request(slots_[other]);
      return other;
    }
  }

  // data_start = max(L + c, G) per class (see the header design note),
  // G per (bank group, class).
  for (unsigned g = 0; g < device_.bank_groups; ++g) {
    for (unsigned c = 0; c < 4; ++c) group_floor_[4 * g + c] = class_floor(terms, g, c);
  }
  // Fold (data_start, seq) over the occupied class heads as one 128-bit
  // key, so the comparison compiles to conditional moves (data_start >=
  // bus_free_ >= 0, so the high half orders correctly).
  using Key = unsigned __int128;
  const std::size_t floor_mask = group_floor_.size() - 1;
  Key best_key = ~Key{0};
  std::size_t best_index = 0;
  std::uint64_t evaluated = 0;
  for (std::size_t w = 0; w < head_mask_.size(); ++w) {
    for (std::uint64_t word = head_mask_[w]; word != 0; word &= word - 1) {
      const std::size_t index = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      const Ps ds = std::max(local_[index], group_floor_[index & floor_mask]);
      const Key key = (static_cast<Key>(ds) << 64) | head_seq_[index];
      best_index = key < best_key ? index : best_index;
      best_key = key < best_key ? key : best_key;
      ++evaluated;
    }
  }
  candidates += evaluated;
  best = class_head_[best_index];
  plan_out = plan_request(slots_[best]);
  assert(plan_out.data_start == static_cast<Ps>(best_key >> 64));
  return best;
}

std::uint32_t Controller::pick_fr_fcfs_oracle(Plan& plan_out,
                                              std::uint64_t& candidates) const {
  assert(fifo_head_ != kNoSlot);
  // Brute-force reference: replan every queued request on every pick.
  // data_start can never precede the current bus_free_, so a request
  // landing exactly there is unbeatable and ends the scan early; ties
  // resolve to the oldest request because the FIFO is scanned in arrival
  // order.
  std::uint32_t best = fifo_head_;
  Ps best_slot = std::numeric_limits<Ps>::max();
  for (std::uint32_t id = fifo_head_; id != kNoSlot; id = fifo_next_[id]) {
    ++candidates;
    const Plan p = plan_request(slots_[id]);
    if (p.data_start < best_slot) {
      best_slot = p.data_start;
      best = id;
      plan_out = p;
      if (best_slot <= bus_free_) break;
    }
  }
  return best;
}

void Controller::do_refresh(PhaseStats& stats) {
  const TimingParams& t = device_.timing;
  Ps ready = next_refresh_;

  if (refresh_mode_ == RefreshMode::AllBank) {
    for (std::uint32_t i = 0; i < device_.banks; ++i) {
      if (open_row_[i] != kNoRow) close_bank(i, stats);
      ready = std::max(ready, banks_[i].ref_ready);
    }
    ready = std::max(ready, last_refresh_ + t.tRFC_ab);
    for (std::uint32_t i = 0; i < device_.banks; ++i) {
      banks_[i].act_ready = std::max(banks_[i].act_ready, ready + t.tRFC_ab);
      update_local(i);
    }
    emit(Command{.kind = CommandKind::RefAb, .issue = ready});
  } else {
    // Per-bank / same-bank rotation group.
    const unsigned group = next_refresh_group_;
    auto is_member = [&](std::uint32_t i) {
      return (refresh_mode_ == RefreshMode::PerBank)
                 ? (i == group)
                 : (i / device_.bank_groups == group);
    };
    for (std::uint32_t i = 0; i < device_.banks; ++i) {
      if (!is_member(i)) continue;
      if (open_row_[i] != kNoRow) close_bank(i, stats);
      ready = std::max(ready, banks_[i].ref_ready);
    }
    ready = std::max(ready, last_refresh_ + t.tRFC_grp);
    for (std::uint32_t i = 0; i < device_.banks; ++i) {
      if (is_member(i)) {
        banks_[i].act_ready = std::max(banks_[i].act_ready, ready + t.tRFC_grp);
        update_local(i);
      }
    }
    emit(Command{.kind = CommandKind::RefGrp, .issue = ready, .bank = group});
    next_refresh_group_ = (next_refresh_group_ + 1) % refresh_groups_;
  }

  last_refresh_ = ready;
  ++stats.refreshes;
  next_refresh_ += refresh_interval_;
}

void Controller::refresh_if_due(PhaseStats& stats) {
  if (refresh_mode_ == RefreshMode::Disabled) return;
  while (next_refresh_ <= now_) do_refresh(stats);
}

PhaseStats Controller::run_phase(RequestStream& stream, std::string label) {
  PhaseStats stats;
  stats.label = std::move(label);
  const std::uint64_t host_start_ns = perf::now_ns();

  const std::uint32_t banks = device_.banks;
  const std::uint32_t rows = device_.rows_per_bank;
  const std::uint32_t columns = device_.columns_per_page;
  // Requests arrive a run per virtual call and wait in `run` until the
  // queue has room; each gets its arrival seq when it is enqueued.
  std::array<Request, 64> run;
  std::size_t run_pos = 0;
  std::size_t run_len = 0;
  auto refill = [&] {
    while (!free_slots_.empty()) {
      if (run_pos == run_len) {
        run_len = stream.next_batch(run.data(), run.size());
        run_pos = 0;
        if (run_len == 0) return;
      }
      Request& r = run[run_pos++];
      r.seq = next_seq_++;
      if (r.addr.bank >= banks || r.addr.row >= rows || r.addr.column >= columns) {
        throw std::out_of_range("Controller: request address outside device");
      }
      enqueue(r);
    }
  };

  refill();
  while (fifo_head_ != kNoSlot) {
    refresh_if_due(stats);
    Plan plan;
    std::uint32_t slot_id;
    switch (config_.policy) {
      case ControllerConfig::Policy::Fcfs:
        slot_id = fifo_head_;
        plan = plan_request(slots_[slot_id]);
        ++stats.pick_candidates;
        break;
      case ControllerConfig::Policy::FrFcfs:
        slot_id = pick_fr_fcfs(plan, stats.pick_candidates);
        break;
      case ControllerConfig::Policy::FrFcfsOracle:
        slot_id = pick_fr_fcfs_oracle(plan, stats.pick_candidates);
        break;
      default:
        throw std::logic_error("Controller: unknown policy");
    }
    ++stats.picks;
    const Request req = slots_[slot_id];
    dequeue(slot_id);
    commit(req, plan, stats);
    refill();
  }
  stats.host_ns = perf::now_ns() - host_start_ns;
  return stats;
}

}  // namespace tbi::dram
