// Property-based ordering tests for the event engine.
//
// A reference model — a binary heap ordered on the (time, seq) pair, with
// the same past-clamping rule — defines the engine contract. Random
// workloads (dense ties, sparse far-apart times, events that schedule more
// events from inside their own execution, run_until splits) are executed
// against the reference model and against the calendar queue; the full
// execution traces and the executed/clamped tallies must agree. Child
// events are derived deterministically from the parent's id (never from
// shared RNG state), so a trace divergence always means an ordering bug and
// not test-harness noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/time.hpp"

namespace because::sim {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Deterministic spawn rule applied by every executed event, in both the
/// model and the real queues. Returns the children as (absolute?, value, id).
struct Spawn {
  bool absolute;
  Time when_or_delay;
  std::uint64_t id;
};

std::vector<Spawn> children_of(std::uint64_t id, Time now, int depth) {
  std::vector<Spawn> out;
  if (depth >= 3) return out;
  const std::uint64_t h = mix(id);
  if (h % 4 == 0) {
    // Relative child, often delay 0 (same-time FIFO tie with siblings).
    out.push_back({false, static_cast<Time>((h >> 8) % 50), id * 2 + 1});
  }
  if (h % 7 == 0) {
    // Absolute child in the past: must clamp to `now`, not throw or rewind.
    out.push_back({true, now - static_cast<Time>((h >> 16) % 100) - 1,
                   id * 2 + 2});
  }
  if (h % 9 == 0) {
    // Far-future child: forces calendar cycling / resize.
    out.push_back({true, now + hours(1) + static_cast<Time>((h >> 24) % hours(48)),
                   id * 3 + 1});
  }
  return out;
}

using Trace = std::vector<std::pair<Time, std::uint64_t>>;

/// The specification: a binary min-heap on (when, seq) over a vector
/// (std::push_heap / std::pop_heap), with schedules in the past clamped to
/// now. Small enough to be obviously correct.
class ReferenceModel {
 public:
  void schedule(Time when, std::uint64_t id, int depth) {
    if (when < now_) {
      when = now_;
      ++past_clamped_;
    }
    pending_.push_back({when, next_seq_++, id, depth});
    std::push_heap(pending_.begin(), pending_.end(), later);
  }

  Trace run_until(Time deadline, bool bounded) {
    Trace trace;
    while (!pending_.empty()) {
      if (bounded && pending_.front().when > deadline) break;
      std::pop_heap(pending_.begin(), pending_.end(), later);
      const Entry entry = pending_.back();
      pending_.pop_back();
      now_ = entry.when;
      ++executed_;
      trace.emplace_back(now_, entry.id);
      for (const Spawn& child : children_of(entry.id, now_, entry.depth)) {
        schedule(child.absolute ? child.when_or_delay : now_ + child.when_or_delay,
                 child.id, entry.depth + 1);
      }
    }
    if (bounded && now_ < deadline) now_ = deadline;
    return trace;
  }

  std::uint64_t executed() const { return executed_; }
  std::uint64_t past_clamped() const { return past_clamped_; }

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint64_t id;
    int depth;
  };
  /// Heap order: the top is the minimal (when, seq).
  static bool later(const Entry& x, const Entry& y) {
    if (x.when != y.when) return x.when > y.when;
    return x.seq > y.seq;
  }
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t past_clamped_ = 0;
  std::vector<Entry> pending_;
};

/// Drives a real EventQueue with the same workload, recording the trace.
class QueueHarness {
 public:
  void schedule(Time when, std::uint64_t id, int depth) {
    queue_.schedule_at(when, [this, id, depth] { execute(id, depth); });
  }

  Trace run_until(Time deadline, bool bounded) {
    trace_.clear();
    if (bounded) queue_.run_until(deadline);
    else queue_.run();
    return std::move(trace_);
  }

  const EventQueue& queue() const { return queue_; }

 private:
  void execute(std::uint64_t id, int depth) {
    trace_.emplace_back(queue_.now(), id);
    for (const Spawn& child : children_of(id, queue_.now(), depth)) {
      const std::uint64_t cid = child.id;
      const int cdepth = depth + 1;
      if (child.absolute) {
        queue_.schedule_at(child.when_or_delay,
                           [this, cid, cdepth] { execute(cid, cdepth); });
      } else {
        queue_.schedule_in(child.when_or_delay,
                           [this, cid, cdepth] { execute(cid, cdepth); });
      }
    }
  }

  EventQueue queue_;
  Trace trace_;
};

/// One random workload: `count` root events over a time range chosen to be
/// either tie-dense or sparse, optionally split by a run_until barrier.
void check_workload(std::uint64_t seed, std::size_t count, Time range,
                    bool with_deadline) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<Time, std::uint64_t>> roots;
  roots.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    roots.emplace_back(static_cast<Time>(rng() % static_cast<std::uint64_t>(range)),
                       1000000 + i);
  }

  ReferenceModel model;
  QueueHarness calendar;
  for (const auto& [when, id] : roots) {
    model.schedule(when, id, 0);
    calendar.schedule(when, id, 0);
  }

  if (with_deadline) {
    const Time deadline = range / 2;
    const Trace expected = model.run_until(deadline, true);
    EXPECT_EQ(calendar.run_until(deadline, true), expected)
        << "calendar diverged before deadline, seed " << seed;
    // Schedule fresh roots *between* the bounded and unbounded runs, earlier
    // than any event the bounded run deferred (times < deadline clamp to
    // now == deadline under the shared rule). Regression coverage for the
    // calendar cursor rewind after run_until pops past its deadline.
    for (std::size_t i = 0; i < count / 4; ++i) {
      const Time when =
          static_cast<Time>(rng() % static_cast<std::uint64_t>(range));
      const std::uint64_t id = 2000000 + i;
      model.schedule(when, id, 0);
      calendar.schedule(when, id, 0);
    }
  }

  const Trace expected = model.run_until(0, false);
  EXPECT_EQ(calendar.run_until(0, false), expected)
      << "calendar diverged, seed " << seed;
  EXPECT_EQ(calendar.queue().executed(), model.executed());
  EXPECT_EQ(calendar.queue().past_clamped(), model.past_clamped());
}

TEST(SimProperty, DenseTiesMatchReferenceModel) {
  // Tiny time range: most events collide on the same timestamps, so the
  // trace is dominated by FIFO tie-breaking.
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    check_workload(seed, 300, 20, false);
}

TEST(SimProperty, MixedDensityMatchesReferenceModel) {
  for (std::uint64_t seed = 100; seed < 112; ++seed)
    check_workload(seed, 250, minutes(10), false);
}

TEST(SimProperty, SparseWorkloadsForceCalendarCyclingAndResizing) {
  // Huge range relative to the event count: the calendar's cursor must cycle
  // through empty buckets and fall back to direct min-search.
  for (std::uint64_t seed = 200; seed < 208; ++seed)
    check_workload(seed, 60, hours(24 * 30), false);
}

TEST(SimProperty, RunUntilSplitPreservesTrace) {
  for (std::uint64_t seed = 300; seed < 310; ++seed)
    check_workload(seed, 200, minutes(30), true);
}

// ---------------------------------------------------------------------------
// Sharded-engine property: a random message-passing workload over N nodes,
// partitioned round-robin across K shard queues, must execute exactly the
// per-node event streams of the serial (K=1) run. Cross-node sends pay at
// least the cut-delay floor (the partition contract bgp::Network guarantees
// via link delays); local follow-ups may land arbitrarily close, including
// same-time ties. Children derive only from (node, msg), so any trace
// divergence is an ordering bug in the round capture/merge protocol.

constexpr Time kShardCutDelay = seconds(2);
constexpr std::uint64_t kShardDepthStep = std::uint64_t{1} << 56;
constexpr int kShardMaxDepth = 4;

class ShardedMessageHarness {
 public:
  ShardedMessageHarness(std::uint32_t shards, std::uint64_t nodes)
      : shards_(shards), nodes_(nodes), traces_(shards) {
    for (std::uint32_t s = 0; s < shards; ++s)
      queues_.push_back(std::make_unique<EventQueue>());
    for (auto& queue : queues_) queue->bind_seq_counter(&seq_);
  }

  std::uint32_t shard_of(std::uint64_t node) const {
    return static_cast<std::uint32_t>(node % shards_);
  }

  void schedule_root(Time when, std::uint64_t node, std::uint64_t msg) {
    // Out-of-round setup goes straight onto the owner's queue, the same way
    // campaign setup targets queue_for(as).
    queues_[shard_of(node)]->schedule_event_at(when, EventKind::kClosure,
                                               &ShardedMessageHarness::event,
                                               this, node, msg);
  }

  std::uint64_t run() {
    std::vector<EventQueue*> raw;
    raw.reserve(queues_.size());
    for (auto& queue : queues_) raw.push_back(queue.get());
    ShardedEngine::Config config;
    config.lookahead = kShardCutDelay;
    ShardedEngine engine(raw, config,
                         [this](std::uint32_t, EventQueue::CapturedEvent& cap) {
                           return shard_of(cap.a);
                         });
    return engine.run();
  }

  /// (when, msg) stream of one node, in execution order.
  std::vector<std::pair<Time, std::uint64_t>> node_trace(
      std::uint64_t node) const {
    std::vector<std::pair<Time, std::uint64_t>> out;
    for (const Entry& entry : traces_[shard_of(node)])
      if (entry.node == node) out.emplace_back(entry.when, entry.msg);
    return out;
  }

 private:
  struct Entry {
    Time when;
    std::uint64_t node;
    std::uint64_t msg;
  };

  static void event(EventQueue& queue, void* ctx, std::uint64_t node,
                    std::uint64_t msg) {
    static_cast<ShardedMessageHarness*>(ctx)->execute(queue, node, msg);
  }

  void execute(EventQueue& queue, std::uint64_t node, std::uint64_t msg) {
    // A node's events always run on its own shard, so each worker only
    // appends to its own trace vector.
    traces_[shard_of(node)].push_back({queue.now(), node, msg});
    const int depth = static_cast<int>(msg >> 56);
    if (depth >= kShardMaxDepth) return;
    const std::uint64_t next = (msg + kShardDepthStep) & ~std::uint64_t{0xff};
    const std::uint64_t h = mix(node * 0x9e37 + (msg & (kShardDepthStep - 1)));
    if (h % 3 == 0) {
      // Local follow-up: same node, tiny delay (ties with siblings allowed —
      // these take the provisional-seq path inside a round).
      queue.schedule_event_in(static_cast<Duration>(h % 100),
                              EventKind::kClosure,
                              &ShardedMessageHarness::event, this, node,
                              next | 1);
    }
    if (h % 2 == 0) {
      // Cross-node message: any node, delayed by at least the cut floor.
      // Scheduled on the *sender's* queue, exactly like Network::deliver_in
      // in-round; the dispatcher routes the capture to the owner's shard.
      const std::uint64_t to = (h >> 16) % nodes_;
      const Duration delay =
          kShardCutDelay + static_cast<Duration>((h >> 32) % seconds(5));
      queue.schedule_event_in(delay, EventKind::kClosure,
                              &ShardedMessageHarness::event, this, to,
                              next | 2);
    }
    if (h % 11 == 0) {
      // Same-time fan-out: both messages land at the same instant on
      // (usually) different shards — the merge-order tie-break case.
      for (std::uint64_t k = 1; k <= 2; ++k) {
        queue.schedule_event_in(kShardCutDelay, EventKind::kClosure,
                                &ShardedMessageHarness::event, this,
                                (node + k) % nodes_, next | (2 + k));
      }
    }
  }

  std::uint32_t shards_;
  std::uint64_t nodes_;
  std::uint64_t seq_ = 0;
  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<std::vector<Entry>> traces_;
};

TEST(SimProperty, ShardedEngineMatchesSerialPerNodeStreams) {
  for (std::uint64_t seed = 500; seed < 506; ++seed) {
    std::mt19937_64 rng(seed);
    constexpr std::uint64_t kNodes = 24;
    std::vector<std::tuple<Time, std::uint64_t, std::uint64_t>> roots;
    for (std::uint64_t i = 0; i < 120; ++i) {
      roots.emplace_back(static_cast<Time>(rng() % minutes(2)), rng() % kNodes,
                         i << 8);
    }

    ShardedMessageHarness serial(1, kNodes);
    for (const auto& [when, node, msg] : roots)
      serial.schedule_root(when, node, msg);
    const std::uint64_t serial_executed = serial.run();
    ASSERT_GT(serial_executed, roots.size());  // the workload actually fans out

    for (std::uint32_t shards : {2u, 3u, 5u}) {
      ShardedMessageHarness sharded(shards, kNodes);
      for (const auto& [when, node, msg] : roots)
        sharded.schedule_root(when, node, msg);
      EXPECT_EQ(sharded.run(), serial_executed)
          << shards << " shards, seed " << seed;
      for (std::uint64_t node = 0; node < kNodes; ++node) {
        EXPECT_EQ(sharded.node_trace(node), serial.node_trace(node))
            << "node " << node << ", " << shards << " shards, seed " << seed;
      }
    }
  }
}

TEST(SimProperty, PastClampCountsAgreeWithModelSemantics) {
  // A workload guaranteed to hit the clamp rule (children with h % 7 == 0).
  ReferenceModel model;
  QueueHarness calendar;
  for (std::uint64_t id = 0; id < 400; ++id) {
    const Time when = static_cast<Time>(mix(id ^ 0xbeef) % minutes(5));
    model.schedule(when, id, 0);
    calendar.schedule(when, id, 0);
  }
  EXPECT_EQ(calendar.run_until(0, false), model.run_until(0, false));
  EXPECT_GT(calendar.queue().past_clamped(), 0u);
  EXPECT_EQ(calendar.queue().past_clamped(), model.past_clamped());
}

}  // namespace
}  // namespace because::sim
