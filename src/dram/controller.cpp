#include "dram/controller.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "perf/counters.hpp"

namespace tbi::dram {

namespace {

RefreshMode effective_refresh_mode(const DeviceConfig& dev,
                                   const ControllerConfig& cfg) {
  if (cfg.use_device_default_refresh) return dev.default_refresh;
  return cfg.refresh_mode;
}

}  // namespace

Controller::Controller(DeviceConfig device, ControllerConfig config)
    : device_(std::move(device)),
      config_(config),
      refresh_mode_(effective_refresh_mode(device_, config)) {
  device_.validate();
  if (config_.queue_depth == 0) {
    throw std::invalid_argument("Controller: queue_depth must be > 0");
  }
  banks_.resize(device_.banks);
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
  head_mask_.assign((class_head_.size() + 63) / 64, 0);
  local_.resize(class_head_.size());
  for (std::uint32_t b = 0; b < device_.banks; ++b) update_local(b);
  std::size_t table = 64;
  while (table < static_cast<std::size_t>(config_.queue_depth) * 4) table *= 2;
  row_counts_.assign(table, RowCountEntry{});
  row_mask_ = table - 1;

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
  const Bank& b = banks_[req.addr.bank];
  if (!b.open) return RowBufferResult::Miss;
  return b.row == req.addr.row ? RowBufferResult::Hit : RowBufferResult::Conflict;
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
  assert(b.open);
  const Ps pre_t = std::max(b.pre_ready, b.last_act + device_.timing.tRAS);
  b.open = false;
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
      b.open = false;
      b.act_ready = std::max(b.act_ready, plan.pre_t + t.tRP);
      b.ref_ready = std::max(b.ref_ready, plan.pre_t + t.tRP);
      ++stats.precharges;
      emit(Command{.kind = CommandKind::Pre, .issue = plan.pre_t, .bank = bank_id});
      [[fallthrough]];
    }
    case RowBufferResult::Miss: {
      if (plan.kind == RowBufferResult::Miss) ++stats.row_misses;
      b.open = true;
      b.row = req.addr.row;
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

std::size_t Controller::row_slot(std::uint64_t key) const {
  // Fibonacci hashing: one multiply, top bits. The keys are structured
  // (bank | row | dir) and the golden-ratio multiply spreads consecutive
  // rows well enough for short linear-probe chains at 4x slack.
  const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h >> 32) & row_mask_;
}

void Controller::row_count_add(std::uint64_t key) {
  std::size_t i = row_slot(key);
  while (row_counts_[i].key != key && row_counts_[i].key != kEmptyKey) {
    i = (i + 1) & row_mask_;
  }
  row_counts_[i].key = key;
  ++row_counts_[i].count;
}

void Controller::row_count_remove(std::uint64_t key) {
  std::size_t i = row_slot(key);
  while (row_counts_[i].key != key) i = (i + 1) & row_mask_;
  if (--row_counts_[i].count > 0) return;
  // Backward-shift deletion keeps probe chains tombstone-free.
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & row_mask_;
    if (row_counts_[j].key == kEmptyKey) break;
    const std::size_t ideal = row_slot(row_counts_[j].key);
    if (((j - ideal) & row_mask_) >= ((j - i) & row_mask_)) {
      row_counts_[i] = row_counts_[j];
      i = j;
    }
  }
  row_counts_[i] = RowCountEntry{};
}

std::uint32_t Controller::row_count_get(std::uint64_t key) const {
  std::size_t i = row_slot(key);
  while (row_counts_[i].key != kEmptyKey) {
    if (row_counts_[i].key == key) return row_counts_[i].count;
    i = (i + 1) & row_mask_;
  }
  return 0;
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
  ++bin.total[req.is_write ? 1 : 0];
  row_count_add(row_key(req.addr.bank, req.addr.row, req.is_write));
  const std::uint32_t index = req.addr.bank * 4 + class_of(req);
  if (class_head_[index] == kNoSlot) set_head(index, id);  // the newcomer is the youngest
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
  --bin.total[req.is_write ? 1 : 0];
  row_count_remove(row_key(req.addr.bank, req.addr.row, req.is_write));
  const unsigned c = class_of(req);
  const std::uint32_t index = req.addr.bank * 4 + c;
  if (class_head_[index] == slot_id) {  // the next classmate takes over
    std::uint32_t next = bn;
    while (next != kNoSlot && class_of(slots_[next]) != c) next = bank_next_[next];
    set_head(index, next);
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
  }
}

void Controller::update_local(std::uint32_t bank_id) {
  const Bank& b = banks_[bank_id];
  const TimingParams& t = device_.timing;
  // L: rdwr_ready for a hit; for an ACT, act_ready behind the PRE chain
  // when a row is open.
  const Ps act = b.open ? std::max(b.act_ready,
                                   std::max(b.pre_ready, b.last_act + t.tRAS) + t.tRP)
                        : b.act_ready;
  Ps* local = &local_[static_cast<std::size_t>(bank_id) * 4];
  local[0] = b.rdwr_ready + t.CL;
  local[1] = b.rdwr_ready + t.CWL;
  local[2] = act + t.tRCD + t.CL;
  local[3] = act + t.tRCD + t.CWL;
}

void Controller::refill_heads(std::uint32_t bank_id) {
  const Bin& bin = bins_[bank_id];
  const Bank& b = banks_[bank_id];
  unsigned missing = 0;  // populated classes whose oldest member is not yet found
  for (unsigned dir = 0; dir < 2; ++dir) {
    const std::uint32_t hits = b.open ? row_count_get(row_key(bank_id, b.row, dir != 0)) : 0;
    if (hits > 0) missing |= 1u << dir;
    if (bin.total[dir] > hits) missing |= 1u << (2 + dir);
  }
  for (unsigned c = 0; c < 4; ++c) set_head(bank_id * 4 + c, kNoSlot);
  for (std::uint32_t id = bin.head; missing != 0; id = bank_next_[id]) {
    const unsigned c = class_of(slots_[id]);
    if ((missing & (1u << c)) == 0) continue;
    set_head(bank_id * 4 + c, id);
    missing &= ~(1u << c);
  }
}

std::uint32_t Controller::pick_fr_fcfs(Plan& plan_out, std::uint64_t& candidates) {
  assert(fifo_head_ != kNoSlot);
  // No Plan starts before bus_free_, so an oldest request landing there
  // wins outright: nothing is earlier and it wins every tie by age.
  ++candidates;
  plan_out = plan_request(slots_[fifo_head_]);
  if (plan_out.data_start <= bus_free_) return fifo_head_;

  // data_start = max(L + c, G) per class (see the header design note).
  // G per (bank group, class): the CAS-rate, W->R and bus floors, plus
  // the ACT-rate floor + tRCD for the classes that need an ACT.
  const TimingParams& t = device_.timing;
  const Ps cas_any = last_cas_any_ + t.tCCD_S;
  Ps act_any = last_act_any_ + t.tRRD_S;
  if (faw_len_ == 4) act_any = std::max(act_any, faw_[faw_head_] + t.tFAW);
  const Ps wtr = last_wr_data_end_ + t.tWTR;
  const Ps bus_w = last_burst_was_write_
                       ? bus_free_
                       : std::max(bus_free_, last_rd_data_end_ + t.tRTW_bubble);
  for (std::size_t g = 0; g < last_cas_in_group_.size(); ++g) {
    const Ps cas = std::max(cas_any, last_cas_in_group_[g] + t.tCCD_L);
    const Ps act = std::max(act_any, last_act_in_group_[g] + t.tRRD_L) + t.tRCD;
    Ps* floor = &group_floor_[4 * g];
    floor[0] = std::max(std::max(cas, wtr) + t.CL, bus_free_);
    floor[1] = std::max(cas + t.CWL, bus_w);
    floor[2] = std::max(std::max({cas, wtr, act}) + t.CL, bus_free_);
    floor[3] = std::max(std::max(cas, act) + t.CWL, bus_w);
  }

  // Fold (data_start, seq) over the occupied class heads as one 128-bit
  // key, so the comparison compiles to conditional moves (data_start >=
  // bus_free_ >= 0, so the high half orders correctly).
  using Key = unsigned __int128;
  const std::size_t floor_mask = group_floor_.size() - 1;
  Key best_key = ~Key{0};
  std::uint32_t best = kNoSlot;
  std::uint64_t evaluated = 0;
  for (std::size_t w = 0; w < head_mask_.size(); ++w) {
    for (std::uint64_t word = head_mask_[w]; word != 0; word &= word - 1) {
      const std::size_t index = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      const Ps ds = std::max(local_[index], group_floor_[index & floor_mask]);
      const std::uint32_t id = class_head_[index];
      const Key key = (static_cast<Key>(ds) << 64) | slots_[id].seq;
      best = key < best_key ? id : best;
      best_key = key < best_key ? key : best_key;
      ++evaluated;
    }
  }
  candidates += evaluated;
  if (best != fifo_head_) plan_out = plan_request(slots_[best]);
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
      if (banks_[i].open) close_bank(i, stats);
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
      if (banks_[i].open) close_bank(i, stats);
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
  auto refill = [&] {
    Request r;
    while (!free_slots_.empty() && stream.next(r)) {
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
