// Space-parallel conservative-synchronization driver over K shard
// EventQueues (one per partition of the AS graph; topology/partition.hpp).
//
// The engine advances all shards in lockstep *rounds*. Each round:
//
//   1. The coordinator peeks the globally earliest pending event time M and
//      sets the horizon H = M + lookahead, where lookahead <= the minimum
//      link delay across partition-cut edges (plus whatever other latency
//      floor the workload guarantees for cross-shard interactions).
//   2. Every shard worker runs its queue through [.., H-1] in parallel.
//      Events executed in this window can only have been scheduled by this
//      shard (anything crossing the cut pays >= lookahead and so lands at or
//      beyond H), which is why the window is data-race free by construction.
//   3. Schedule calls made during the window targeting times >= H are
//      *captured*, not inserted (EventQueue round mode). Between rounds the
//      coordinator merges all captures in the exact order a serial engine
//      would have made the same schedule calls, routes each through the
//      dispatcher (which may translate cross-shard payloads and pick the
//      destination shard), and re-inserts them drawing the shared sequence
//      counter — so every event that survives a round boundary carries a
//      globally ordered seq, and per-queue pop order is the serial order.
//
// Bit-identity across shard counts follows: the merge order is a pure
// function of the serial schedule-call order (see DESIGN.md §5j for the
// ordering proof), and within a round all execution is shard-local.
//
// Workers are persistent tasks on an engine-owned util::ThreadPool parked on
// the annotated Control barrier below; each installs its own obs trace lane
// so per-lane trace streams keep the one-writer invariant.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/annotations.hpp"
#include "util/thread_pool.hpp"

namespace because::sim {

class ShardedEngine {
 public:
  struct Config {
    /// Conservative lookahead: a lower bound on the sim-time latency of any
    /// cross-shard interaction. Must be > 0; correctness requires it to be
    /// <= the true minimum (the engine cannot check that), and events that
    /// must carry globally ordered seqs (collector records) must always be
    /// scheduled at least `lookahead` ahead so they are captured.
    Duration lookahead = milliseconds(1);
    /// Run the round protocol even with a single shard (tests exercise the
    /// capture/merge machinery against the plain-run reference this way).
    bool force_rounds = false;
  };

  /// Routes one captured event between rounds: returns the destination shard
  /// and may rewrite the capture in place (cross-shard payload translation,
  /// e.g. bgp::Network re-interning an AS path into the target shard's
  /// table). Called on the coordinator thread only, in merge order.
  using Dispatcher =
      std::function<std::uint32_t(std::uint32_t src_shard,
                                  EventQueue::CapturedEvent& cap)>;

  /// `queues` are the per-shard queues (one shared seq counter bound by the
  /// caller); they must outlive the engine.
  ShardedEngine(std::vector<EventQueue*> queues, const Config& config,
                Dispatcher dispatcher);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  /// Run rounds until every shard queue is drained; returns the total number
  /// of events executed across all shards. With one shard and force_rounds
  /// off this is exactly queues[0]->run().
  std::uint64_t run();

  /// Rounds completed so far (diagnostics; 0 after a plain serial run).
  std::uint64_t rounds() const { return rounds_; }

 private:
  /// Coordinator/worker round barrier. Workers park on work_cv until the
  /// round counter advances, run their shard to the horizon, and the last
  /// one out signals done_cv. All cross-thread state lives here, guarded.
  struct Control {
    util::Mutex mutex;
    util::CondVar work_cv;
    util::CondVar done_cv;
    /// Round generation; a worker runs when it observes a value above the
    /// one it last completed.
    std::uint64_t round BECAUSE_GUARDED_BY(mutex) = 0;
    std::uint32_t running BECAUSE_GUARDED_BY(mutex) = 0;
    Time horizon BECAUSE_GUARDED_BY(mutex) = 0;
    bool stop BECAUSE_GUARDED_BY(mutex) = false;
    std::uint64_t executed BECAUSE_GUARDED_BY(mutex) = 0;
    /// First worker failure; rethrown by the coordinator at the barrier.
    std::exception_ptr error BECAUSE_GUARDED_BY(mutex);
  };

  void start_workers();
  void worker_loop(std::uint32_t shard, std::uint32_t lane);
  /// Signal one round at `horizon` and block until all workers finish it.
  void run_round(Time horizon);
  /// Sort all shards' captures into serial schedule-call order and re-insert
  /// them through the dispatcher.
  void merge_captures();

  // Serial-order comparators over capture/spawner identities. A schedule
  // call is (spawner event, call index); an event is (when, seq) plus, for
  // provisional seqs, the shard whose arena resolves them. Recursion through
  // provisional spawners terminates because arena indices strictly decrease
  // along the ancestry and every chain roots in a shared-seq event.
  bool less_call(std::uint32_t sa, Time wa, std::uint64_t qa, std::uint32_t ca,
                 std::uint32_t sb, Time wb, std::uint64_t qb,
                 std::uint32_t cb) const;
  bool less_event(std::uint32_t sa, Time wa, std::uint64_t qa,
                  std::uint32_t sb, Time wb, std::uint64_t qb) const;

  std::vector<EventQueue*> queues_;
  Config config_;
  Dispatcher dispatcher_;
  std::uint64_t rounds_ = 0;
  /// First trace lane for shard workers; derived from the constructing
  /// thread's lane so nested (campaign-cell x shard) lanes never collide.
  std::uint32_t lane_base_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::future<void>> workers_;
  Control control_;
};

}  // namespace because::sim
