#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"
#include "util/log.hpp"

namespace because::sim {

namespace {

constexpr std::size_t kMinBuckets = 32;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
constexpr Duration kInitialWidth = milliseconds(100);
constexpr Duration kMaxWidth = hours(1);
// Width adaptation: every kWidthCheckPops pops, if the mean scan+skip work
// per pop exceeded kWorkPerPopBudget, re-derive the width from the sim-time
// those pops spanned and rebucket (with 2x hysteresis so a marginal estimate
// doesn't thrash). The budget is deliberately loose: a rebucket relinks
// every pending event, so on campaign workloads (tens of thousands pending)
// tolerating ~30 scanned nodes per pop beats resizing at ~8 — measured on
// bench_sim, retunes drop ~3x and end-to-end throughput rises ~15%.
constexpr std::uint64_t kWidthCheckPops = 128;
constexpr std::uint64_t kWorkPerPopBudget = 32;

}  // namespace

EventQueue::EventQueue() {
  heads_.assign(kMinBuckets, kNil);
  mask_ = kMinBuckets - 1;
  width_ = kInitialWidth;
  cursor_ = 0;
  cursor_top_ = width_;
}

EventQueue::~EventQueue() {
  if (!obs::enabled()) return;
  // The per-kind counters in the obs catalogue mirror EventKind order, so the
  // flush is a straight loop from the first kind counter.
  static_assert(static_cast<std::size_t>(obs::Counter::kSimEventsCollectorRecord) -
                        static_cast<std::size_t>(obs::Counter::kSimEventsClosure) + 1 ==
                    kEventKindCount,
                "obs counter catalogue out of sync with EventKind");
  const auto base =
      static_cast<obs::CounterId>(obs::Counter::kSimEventsClosure);
  for (std::size_t k = 0; k < kEventKindCount; ++k)
    obs::add(base + static_cast<obs::CounterId>(k), executed_by_kind_[k]);
  obs::add(obs::Counter::kSimSchedules, scheduled_);
  obs::add(obs::Counter::kSimPastClamped, past_clamped_);
  obs::add(obs::Counter::kSimCalScanSteps, cal_scan_steps_);
  obs::add(obs::Counter::kSimCalWindowSkips, cal_window_skips_);
  obs::add(obs::Counter::kSimCalResizes, cal_resizes_);
  for (std::size_t b = 0; b < depth_hist_.size(); ++b)
    obs::observe_bucket(obs::Histo::kQueueDepth, b, depth_hist_[b]);
}

Time EventQueue::clamp_past(Time when) {
  if (when >= now_) return when;
  // Past clamps are expected steady-state behaviour (zero-delay timers racing
  // the clock), so only the first occurrence logs; past_clamped() carries the
  // full count for diagnostics.
  if (past_clamped_++ == 0) {
    util::log_warn() << "EventQueue: schedule at t=" << when << " is "
                     << (now_ - when) << "ms in the past; clamped to now="
                     << now_ << " (later clamps are counted, not logged)";
  }
  return now_;
}

void EventQueue::schedule_at(Time when, Action action) {
  when = clamp_past(when);
  ++scheduled_;
  if (round_active_) {
    const std::uint32_t call = call_index_++;
    if (when >= horizon_) {
      CapturedEvent cap;
      cap.when = when;
      cap.kind = EventKind::kClosure;
      cap.closure = std::move(action);
      cap.spawner_when = cur_when_;
      cap.spawner_seq = cur_seq_;
      cap.call_index = call;
      captures_.push_back(std::move(cap));
      return;
    }
    const std::uint64_t seq =
        kProvisionalBit | static_cast<std::uint64_t>(provisional_arena_.size());
    provisional_arena_.push_back({cur_when_, cur_seq_, call});
    Event event;
    event.when = when;
    event.seq = seq;
    event.fn = &EventQueue::run_closure_slot;
    event.a = intern_closure(std::move(action));
    event.kind = EventKind::kClosure;
    cal_insert(event);
    return;
  }
  Event event;
  event.when = when;
  event.seq = take_seq();
  event.fn = &EventQueue::run_closure_slot;
  event.a = intern_closure(std::move(action));
  event.kind = EventKind::kClosure;
  cal_insert(event);
}

void EventQueue::schedule_in(Duration delay, Action action) {
  schedule_at(now_ + delay, std::move(action));
}

void EventQueue::schedule_event_at(Time when, EventKind kind, EventFn fn,
                                   void* ctx, std::uint64_t a,
                                   std::uint64_t b) {
  when = clamp_past(when);
  ++scheduled_;
  if (round_active_) {
    const std::uint32_t call = call_index_++;
    if (when >= horizon_) {
      captures_.push_back(CapturedEvent{when, kind, fn, ctx, a, b, Action{},
                                        cur_when_, cur_seq_, call});
      return;
    }
    const std::uint64_t seq =
        kProvisionalBit | static_cast<std::uint64_t>(provisional_arena_.size());
    provisional_arena_.push_back({cur_when_, cur_seq_, call});
    cal_insert(Event{when, seq, fn, ctx, a, b, kind});
    return;
  }
  cal_insert(Event{when, take_seq(), fn, ctx, a, b, kind});
}

void EventQueue::schedule_event_in(Duration delay, EventKind kind, EventFn fn,
                                   void* ctx, std::uint64_t a,
                                   std::uint64_t b) {
  schedule_event_at(now_ + delay, kind, fn, ctx, a, b);
}

std::uint32_t EventQueue::intern_closure(Action action) {
  if (!free_closures_.empty()) {
    const std::uint32_t slot = free_closures_.back();
    free_closures_.pop_back();
    BECAUSE_ASSERT(closures_[slot] == nullptr,
                   "free-listed closure slot " << slot << " still occupied");
    closures_[slot] = std::move(action);
    return slot;
  }
  closures_.push_back(std::move(action));
  return static_cast<std::uint32_t>(closures_.size() - 1);
}

void EventQueue::run_closure_slot(EventQueue& queue, void*, std::uint64_t a,
                                  std::uint64_t) {
  const auto slot = static_cast<std::uint32_t>(a);
  BECAUSE_ASSERT(slot < queue.closures_.size() &&
                     queue.closures_[slot] != nullptr,
                 "closure slot " << slot << " out of range or already freed ("
                                 << queue.closures_.size() << " slots)");
  // Move the action out and free the slot first so re-entrant scheduling may
  // reuse (or grow) the slab safely.
  Action action = std::move(queue.closures_[slot]);
  queue.closures_[slot] = nullptr;
  queue.free_closures_.push_back(slot);
  action();
}

void EventQueue::note_pop(Time when, std::uint64_t seq) {
  BECAUSE_ASSERT(when >= now_, "popped event at t=" << when
                                   << " precedes the clock now=" << now_
                                   << " (seq " << seq << ")");
  BECAUSE_ASSERT(!popped_any_ || when > last_pop_when_ ||
                     (when == last_pop_when_ && seq > last_pop_seq_),
                 "pop order regressed: (" << when << ", " << seq
                                          << ") after (" << last_pop_when_
                                          << ", " << last_pop_seq_ << ")");
  last_pop_when_ = when;
  last_pop_seq_ = seq;
  popped_any_ = true;
  // Queue-depth sample per pop; size_ has already been decremented by
  // cal_pop, so this is the depth the *next* pop will scan. One predictable
  // branch when collection is off.
  if (obs::enabled())
    depth_hist_[obs::histogram_bucket(size_)] += 1;
}

void EventQueue::dispatch(const Event& event) {
  note_pop(event.when, event.seq);
  now_ = event.when;
  cur_when_ = event.when;
  cur_seq_ = event.seq;
  call_index_ = 0;
  event.fn(*this, event.ctx, event.a, event.b);
  ++executed_;
  ++executed_by_kind_[static_cast<std::size_t>(event.kind)];
}

std::uint64_t EventQueue::run() {
  std::uint64_t count = 0;
  Event event;
  while (cal_pop(event)) {
    dispatch(event);
    ++count;
  }
  return count;
}

std::uint64_t EventQueue::run_until(Time deadline) {
  std::uint64_t count = 0;
  Event event;
  while (cal_pop(event)) {
    if (event.when > deadline) {
      cal_insert(event);  // keeps its original seq: ordering is unchanged
      break;
    }
    dispatch(event);
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  // The pop that overshot the deadline may have jumped the cursor to the
  // deferred event's far-future window (full-cycle fallback). Rewind the
  // scan to now_'s window, exactly as cal_resize does, so events scheduled
  // after this call at earlier times are popped first. Safe because every
  // pending event is now strictly after deadline == now_.
  cursor_top_ = (now_ / width_) * width_ + width_;
  cursor_ = bucket_index(now_);
  return count;
}

// ---------------------------------------------------------------------------
// Calendar queue. Buckets partition time into windows of `width_` ms; an
// event lands in bucket (when / width) % nbuckets. The cursor drains one
// window at a time, so a bucket may hold events of far-future windows — the
// `when < cursor_top_` guard skips those until their cycle comes around.
// Popping always yields the globally minimal (when, seq): same-time events
// share a bucket, so ties resolve by seq within one scan.
// ---------------------------------------------------------------------------

void EventQueue::cal_insert(const Event& event) {
  std::uint32_t slot;
  if (!free_nodes_.empty()) {
    slot = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  std::uint32_t& head = heads_[bucket_index(event.when)];
  nodes_[slot].event = event;
  nodes_[slot].next = head;
  head = slot;
  ++size_;
  if (size_ > heads_.size() * 2 && heads_.size() < kMaxBuckets)
    cal_resize(heads_.size() * 2, width_);
}

bool EventQueue::cal_pop(Event& out) {
  if (size_ == 0) return false;
  // Window invariant: cursor_top_ sits on a width_ boundary and cursor_ is
  // the bucket of the window ending at cursor_top_. Every cursor move below
  // (and in cal_resize / run_until) preserves this.
  BECAUSE_DCHECK(
      width_ > 0 && cursor_top_ % width_ == 0 &&
          cursor_ == (static_cast<std::size_t>(cursor_top_ / width_ - 1) &
                      mask_),
      "calendar cursor/window desync: cursor=" << cursor_ << " cursor_top="
                                               << cursor_top_ << " width="
                                               << width_);
  const std::uint64_t work_before = cal_scan_steps_ + cal_window_skips_;
  const std::size_t nbuckets = heads_.size();
  for (std::size_t step = 0; step < nbuckets; ++step) {
    // Find the minimal (when, seq) among this window's due entries, keeping
    // the predecessor link so the winner can be unlinked. List order within
    // a bucket is irrelevant: the scan is a full min-reduction.
    std::uint32_t best = kNil, best_prev = kNil;
    std::uint32_t prev = kNil;
    for (std::uint32_t i = heads_[cursor_]; i != kNil; i = nodes_[i].next) {
      ++cal_scan_steps_;
      if (nodes_[i].event.when < cursor_top_ &&
          (best == kNil || earlier(nodes_[i].event, nodes_[best].event))) {
        best = i;
        best_prev = prev;
      }
      prev = i;
    }
    if (best != kNil) {
      out = nodes_[best].event;
      if (best_prev == kNil) heads_[cursor_] = nodes_[best].next;
      else nodes_[best_prev].next = nodes_[best].next;
      free_nodes_.push_back(best);
      --size_;
      if (heads_.size() > kMinBuckets && size_ < heads_.size() / 8)
        cal_resize(heads_.size() / 2, width_);
      else
        cal_retune(work_before);
      return true;
    }
    cursor_ = (cursor_ + 1) & mask_;
    cursor_top_ += width_;
    ++cal_window_skips_;
  }

  // A full cycle found nothing due: the next event is far in the future
  // (sparse phase, e.g. a beacon Break). Jump straight to the global minimum.
  std::uint32_t best = kNil, best_prev = kNil;
  std::size_t best_bucket = 0;
  for (std::size_t bkt = 0; bkt < nbuckets; ++bkt) {
    std::uint32_t prev = kNil;
    for (std::uint32_t i = heads_[bkt]; i != kNil; i = nodes_[i].next) {
      ++cal_scan_steps_;
      if (best == kNil || earlier(nodes_[i].event, nodes_[best].event)) {
        best = i;
        best_prev = prev;
        best_bucket = bkt;
      }
      prev = i;
    }
  }
  BECAUSE_ASSERT(best != kNil, "calendar lost events: size=" << size_
                                   << " but a full sweep found none");
  out = nodes_[best].event;
  if (best_prev == kNil) heads_[best_bucket] = nodes_[best].next;
  else nodes_[best_prev].next = nodes_[best].next;
  free_nodes_.push_back(best);
  --size_;
  cursor_top_ = (out.when / width_) * width_ + width_;
  cursor_ = bucket_index(out.when);
  if (heads_.size() > kMinBuckets && size_ < heads_.size() / 8)
    cal_resize(heads_.size() / 2, width_);
  else
    cal_retune(work_before);
  return true;
}

void EventQueue::cal_resize(std::size_t nbuckets, Duration width) {
  ++cal_resizes_;
  // Relink in one pass: swap the old bucket heads into a scratch vector
  // whose capacity persists across resizes, then walk each chain moving
  // nodes into the new buckets. The Event payloads stay put in the slab, and
  // steady-state resizes never allocate. Chain order within a bucket is
  // irrelevant (pops are a full min-reduction), so relinking by prepend is
  // fine.
  std::swap(heads_, resize_scratch_);
  heads_.assign(nbuckets, kNil);
  mask_ = nbuckets - 1;
  width_ = width;
  // Every pending event is at or after now_ (pops return the global min and
  // schedules clamp), so restart the scan at now_'s window.
  cursor_top_ = (now_ / width_) * width_ + width_;
  cursor_ = bucket_index(now_);
  std::size_t relinked = 0;
  for (const std::uint32_t old_head : resize_scratch_) {
    for (std::uint32_t i = old_head; i != kNil;) {
      const std::uint32_t next = nodes_[i].next;
      std::uint32_t& head = heads_[bucket_index(nodes_[i].event.when)];
      nodes_[i].next = head;
      head = i;
      ++relinked;
      i = next;
    }
  }
  BECAUSE_ASSERT(relinked == size_,
                 "calendar chains hold " << relinked << " events but size="
                                         << size_);
  resize_scratch_.clear();
  pops_since_width_ = 0;
  work_since_width_ = 0;
  width_epoch_ = now_;
}

void EventQueue::cal_retune(std::uint64_t work_before) {
  // Called after every pop that did not resize. The bucket width that makes
  // pops cheap is the inter-event spacing at the *front* of the queue, and
  // the stream of executed events measures exactly that for free: campaign
  // workloads are a skewed mixture (sub-ms BGP delivery cascades pending next
  // to RFD reuse timers an hour out), so any estimate over the pending set
  // lands between the modes and serves neither. Width only moves when the
  // measured work rate says the current bucketing is actually hurting, with
  // 2x hysteresis; the same rule widens after a burst (full-cycle fallback
  // scans dominate) and narrows when a new burst piles into one bucket.
  work_since_width_ += (cal_scan_steps_ + cal_window_skips_) - work_before;
  if (++pops_since_width_ < kWidthCheckPops) return;
  if (work_since_width_ > kWorkPerPopBudget * pops_since_width_) {
    const Time span = now_ - width_epoch_;
    const Duration fresh = std::clamp<Duration>(
        2 * span / static_cast<Time>(pops_since_width_), milliseconds(1),
        kMaxWidth);
    if (fresh >= 2 * width_ || width_ >= 2 * fresh) {
      cal_resize(heads_.size(), fresh);  // also resets the width counters
      return;
    }
  }
  pops_since_width_ = 0;
  work_since_width_ = 0;
  width_epoch_ = now_;
}

// ---------------------------------------------------------------------------
// Sharded-round protocol (driven by sim::ShardedEngine). A round runs the
// queue up to a horizon H chosen so that every event scheduled *during* the
// round with when < H is provably destined for this same shard (cross-cut
// deliveries pay at least the engine lookahead). Such spawns insert directly
// with a provisional seq (top bit set, low bits = arena index): provisional
// seqs compare after every shared seq at the same `when`, and among
// themselves in creation order, which is exactly the serial engine's order
// for same-shard spawns. Spawns at or past H are captured instead of
// inserted; the coordinator merges captures from all shards into the serial
// schedule order and re-inserts them with fresh shared seqs between rounds.
// ---------------------------------------------------------------------------

void EventQueue::begin_round(Time horizon) {
  BECAUSE_CHECK(!round_active_, "begin_round during an active round");
  horizon_ = horizon;
  round_active_ = true;
}

void EventQueue::end_round() {
  BECAUSE_CHECK(round_active_, "end_round without a matching begin_round");
  round_active_ = false;
}

void EventQueue::clear_round_logs() {
  captures_.clear();
  provisional_arena_.clear();
}

void EventQueue::insert_captured(CapturedEvent&& cap) {
  BECAUSE_CHECK(!round_active_,
                "insert_captured must run between rounds, not inside one");
  BECAUSE_ASSERT(cap.when >= now_, "captured event at t=" << cap.when
                                       << " precedes the clock now=" << now_);
  // The schedule that produced this capture already counted in scheduled_ on
  // the spawning shard, so re-insertion must not count again.
  Event event;
  event.when = cap.when;
  event.seq = take_seq();
  event.kind = cap.kind;
  if (cap.fn == nullptr) {
    event.fn = &EventQueue::run_closure_slot;
    event.a = intern_closure(std::move(cap.closure));
  } else {
    event.fn = cap.fn;
    event.ctx = cap.ctx;
    event.a = cap.a;
    event.b = cap.b;
  }
  cal_insert(event);
}

bool EventQueue::peek_next_when(Time& out) {
  if (size_ == 0) return false;
  // The calendar has no O(1) front, so peek by pop + reinsert. cal_pop does
  // not advance now_ or the pop-order checker, and the reinserted event keeps
  // its seq, so ordering is unchanged; the duplicated scan work is amortised
  // by the retune logic exactly like a regular pop.
  Event event;
  const bool popped = cal_pop(event);
  BECAUSE_ASSERT(popped, "peek on a non-empty calendar found no event");
  cal_insert(event);
  out = event.when;
  // The pop may have advanced the cursor into the event's window (or jumped
  // via the full-cycle fallback); rewind to now_'s window as run_until does.
  cursor_top_ = (now_ / width_) * width_ + width_;
  cursor_ = bucket_index(now_);
  return true;
}

}  // namespace because::sim
