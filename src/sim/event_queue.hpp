// Deterministic discrete-event engine.
//
// Events are (time, sequence, payload) triples; ties on time are broken by
// insertion order, which makes entire campaigns reproducible bit-for-bit for
// a fixed RNG seed.
//
// The hot path of a campaign is millions of BGP message deliveries and MRAI /
// RFD timers, so the engine stores *typed* events: a tagged union of a raw
// function pointer, a context pointer and two 64-bit immediates. The closure
// form (`std::function`) survives as the generic fallback for cold callers
// (campaign failure injection, collector export delays, tests). Typed events
// never touch the heap; closures are interned in a free-listed slab so the
// priority structure itself stays trivially copyable.
//
// The priority structure is a bucketed calendar queue keyed on sim::Time:
// O(1) amortised schedule/pop at campaign densities; buckets resize and
// re-estimate their width from the spacing of executed events. Every pop
// yields the globally minimal (time, seq) pair, so the execution order is a
// function of the schedule calls alone (sim_property_test checks it against
// a plain (time, seq) heap model over random schedules).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace because::sim {

struct EventQueueTestPeer;

/// Discriminator of the typed-event union. The simulator layers tag their
/// events so engine statistics (and the bench) can break down the workload;
/// dispatch itself is uniform through the stored function pointer.
enum class EventKind : std::uint8_t {
  kClosure = 0,      ///< generic std::function fallback
  kBgpDelivery = 1,  ///< BGP message delivery (payload slab owned by Network)
  kMraiTimer = 2,    ///< per-(session, prefix) MRAI flush
  kRfdReuse = 3,     ///< RFD reuse/release timer
  kBeacon = 4,       ///< beacon origination / withdrawal action
  kCollectorRecord = 5,  ///< delayed vantage-point export (payload in UpdateStore)
};
inline constexpr std::size_t kEventKindCount = 6;

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Typed event callback: invoked with the owning queue, the registered
  /// context object and the event's two immediate arguments.
  using EventFn = void (*)(EventQueue&, void* ctx, std::uint64_t a,
                           std::uint64_t b);

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Publishes this queue's tallies (executed-by-kind, schedules, clamps,
  /// calendar work, depth histogram) to the obs registry when collection is
  /// enabled. Safe: copying is deleted, so exactly one flush per queue.
  ~EventQueue();

  /// Current simulation time; advances only inside run()/run_until().
  Time now() const { return now_; }

  /// Schedule `action` at absolute time `when`. A `when` before now() is
  /// clamped to now() (and counted + logged): timers can never fire in the
  /// past, which would rewind the clock mid-run.
  void schedule_at(Time when, Action action);

  /// Schedule `action` `delay` after the current time.
  void schedule_in(Duration delay, Action action);

  /// Schedule a typed event. `fn` is dispatched as fn(queue, ctx, a, b).
  /// Same past-clamping rule as schedule_at.
  void schedule_event_at(Time when, EventKind kind, EventFn fn, void* ctx,
                         std::uint64_t a = 0, std::uint64_t b = 0);
  void schedule_event_in(Duration delay, EventKind kind, EventFn fn, void* ctx,
                         std::uint64_t a = 0, std::uint64_t b = 0);

  /// Run until the queue drains. Returns the number of events executed.
  std::uint64_t run();

  /// Run events with time <= `deadline`; the clock ends at `deadline`.
  std::uint64_t run_until(Time deadline);

  // -- sharded-mode plumbing (sim/sharded_engine.hpp) ------------------------
  // A set of shard queues shares one sequence counter, so setup-time
  // schedules are numbered identically at any shard count; during a
  // conservative-sync round each queue captures schedules at or beyond the
  // round horizon for the coordinator, and inserts sub-horizon spawns
  // directly with order-preserving provisional sequence numbers (the high
  // bit marks them; see DESIGN.md §5j for the ordering proof).

  /// Events whose schedule call happened inside a round with `when` at or
  /// beyond the horizon: the coordinator re-schedules them between rounds in
  /// stable serial order via insert_captured().
  struct CapturedEvent {
    Time when = 0;
    EventKind kind = EventKind::kClosure;
    EventFn fn = nullptr;  ///< nullptr = closure form, payload in `closure`
    void* ctx = nullptr;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    Action closure;
    // Identity of the schedule call, for the coordinator's stable merge:
    // the (when, seq) of the event that was executing when the call was
    // made, plus the call's index among that event's schedule calls.
    Time spawner_when = 0;
    std::uint64_t spawner_seq = 0;
    std::uint32_t call_index = 0;
  };

  /// One in-round direct insert. The provisional seq kProvisionalBit|i
  /// refers to entry i of this per-round arena, which records the spawning
  /// schedule call so cross-shard merge keys can be resolved recursively.
  struct ProvisionalNode {
    Time spawner_when = 0;
    std::uint64_t spawner_seq = 0;
    std::uint32_t call_index = 0;
  };
  static constexpr std::uint64_t kProvisionalBit = std::uint64_t{1} << 63;

  /// Share the schedule sequence counter with the other shard queues. While
  /// bound, obs reports the queue's own schedule-call tally (identical to the
  /// legacy next_seq_ flush when unbound).
  void bind_seq_counter(std::uint64_t* counter) { seq_counter_ = counter; }

  /// Enter round mode: schedule calls with when >= horizon are captured,
  /// calls below it insert directly with provisional seqs.
  void begin_round(Time horizon);
  /// Leave round mode (captures and the provisional arena stay readable
  /// until clear_round_logs()).
  void end_round();
  std::vector<CapturedEvent>& captures() { return captures_; }
  const std::vector<ProvisionalNode>& provisional_nodes() const {
    return provisional_arena_;
  }
  void clear_round_logs();

  /// Coordinator-side insert of a captured event, drawing the next shared
  /// seq. Must be called between rounds, in stable merge order.
  void insert_captured(CapturedEvent&& cap);

  /// (when, seq) identity of the event currently being dispatched (valid
  /// inside a callback; last dispatched otherwise).
  Time current_event_when() const { return cur_when_; }
  std::uint64_t current_event_seq() const { return cur_seq_; }

  /// True between begin_round() and end_round() — i.e. while a shard worker
  /// is executing this queue's window. Callers that share state across
  /// queues (bgp::Network's delivery slabs) branch on this: in-round they
  /// must touch only the executing shard's slice, between rounds the whole
  /// system is single-threaded.
  bool in_round() const { return round_active_; }

  /// Time of the next pending event without executing anything; false when
  /// the queue is empty. The calendar cursor is rewound afterwards, so the
  /// peek perturbs no ordering (only the cal work counters).
  bool peek_next_when(Time& out);

  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t executed_of(EventKind kind) const {
    return executed_by_kind_[static_cast<std::size_t>(kind)];
  }
  /// Number of schedule calls whose `when` lay in the past and was clamped.
  std::uint64_t past_clamped() const { return past_clamped_; }

  // Calendar introspection (diagnostics/bench): nodes visited while scanning
  // bucket chains, empty/future windows skipped, and resize count.
  std::uint64_t cal_scan_steps() const { return cal_scan_steps_; }
  std::uint64_t cal_window_skips() const { return cal_window_skips_; }
  std::uint64_t cal_resizes() const { return cal_resizes_; }

 private:
  /// The tagged-union event record. Trivially copyable: closures live in the
  /// slab below and are referenced by slot index through `a`.
  struct Event {
    Time when = 0;
    std::uint64_t seq = 0;
    EventFn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    EventKind kind = EventKind::kClosure;
  };

  static bool earlier(const Event& x, const Event& y) {
    if (x.when != y.when) return x.when < y.when;
    return x.seq < y.seq;
  }

  static void run_closure_slot(EventQueue& queue, void* ctx, std::uint64_t a,
                               std::uint64_t b);

  Time clamp_past(Time when);
  std::uint32_t intern_closure(Action action);
  void dispatch(const Event& event);

  // -- calendar ---------------------------------------------------------------
  /// Calendar events are intrusive singly-linked list nodes in one slab:
  /// inserts never allocate after warm-up, and re-bucketing on resize relinks
  /// indices instead of copying Event payloads.
  struct Node {
    Event event;
    std::uint32_t next = 0;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  void cal_insert(const Event& event);
  bool cal_pop(Event& out);
  void cal_resize(std::size_t buckets, Duration width);
  void cal_retune(std::uint64_t work_before);
  std::size_t bucket_index(Time when) const {
    return static_cast<std::size_t>(
               static_cast<std::uint64_t>(when) /
               static_cast<std::uint64_t>(width_)) &
           mask_;
  }

  /// Pop-ordering contract: every executed event's
  /// (when, seq) must be >= the previous one's and >= now().
  void note_pop(Time when, std::uint64_t seq);

  /// Draw the next schedule seq: the shared counter when bound (sharded
  /// mode), the queue-local one otherwise.
  std::uint64_t take_seq() {
    return seq_counter_ != nullptr ? (*seq_counter_)++ : next_seq_++;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Schedule calls made on this queue (== next_seq_ when unbound); the
  /// value flushed to obs::Counter::kSimSchedules, so binding a shared seq
  /// counter leaves the legacy obs output untouched.
  std::uint64_t scheduled_ = 0;
  std::uint64_t* seq_counter_ = nullptr;

  // Round (sharded) mode state.
  bool round_active_ = false;
  Time horizon_ = 0;
  Time cur_when_ = 0;
  std::uint64_t cur_seq_ = 0;
  std::uint32_t call_index_ = 0;  ///< schedule calls by the dispatching event
  std::vector<CapturedEvent> captures_;
  std::vector<ProvisionalNode> provisional_arena_;
  std::uint64_t past_clamped_ = 0;
  std::array<std::uint64_t, kEventKindCount> executed_by_kind_{};
  std::size_t size_ = 0;

  // Closure slab: slot-indexed so Event stays trivially copyable; freed slots
  // are reused, which also recycles the std::function's captured storage.
  std::vector<Action> closures_;
  std::vector<std::uint32_t> free_closures_;

  // Calendar state.
  std::vector<Node> nodes_;             ///< node slab
  std::vector<std::uint32_t> free_nodes_;
  std::vector<std::uint32_t> heads_;    ///< per-bucket list head (kNil = empty)
  std::vector<std::uint32_t> resize_scratch_;  ///< old heads during cal_resize
  std::size_t mask_ = 0;        ///< bucket count - 1 (power of two)
  Duration width_ = 0;          ///< bucket time width in ms
  std::size_t cursor_ = 0;      ///< bucket currently being drained
  Time cursor_top_ = 0;         ///< events with when < cursor_top_ are due
  std::uint64_t cal_scan_steps_ = 0;
  std::uint64_t cal_window_skips_ = 0;
  std::uint64_t cal_resizes_ = 0;
  // Width adaptation: pops and scan/skip work since the last width check, and
  // the sim-time at that check. When work per pop degrades, the width is
  // re-derived from the observed spacing of *executed* events (the density at
  // the queue's front, which is what pops actually pay for) — pending-event
  // statistics are useless here because far-future RFD/MRAI timers skew them.
  std::uint64_t pops_since_width_ = 0;
  std::uint64_t work_since_width_ = 0;
  Time width_epoch_ = 0;

  // Last dispatched (when, seq), backing the pop-monotonicity contract.
  Time last_pop_when_ = 0;
  std::uint64_t last_pop_seq_ = 0;
  bool popped_any_ = false;

  /// Queue depth at each pop, pre-bucketed (power-of-two buckets). Only
  /// accumulated while obs collection is enabled — the single extra branch
  /// per pop that disabled collection pays — and flushed by the destructor.
  std::array<std::uint64_t, obs::kHistogramBuckets> depth_hist_{};

  /// Test-only backdoor used by contracts_test to inject raw events that
  /// bypass the past-schedule clamp, proving the ordering contracts fire.
  friend struct EventQueueTestPeer;
};

}  // namespace because::sim
