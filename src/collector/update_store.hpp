// Storage for updates recorded at vantage points (the simulated equivalent
// of BGP update dumps from the route collector projects).
//
// Queries are indexed by (vp, prefix) and by prefix: campaigns record
// hundreds of thousands of updates and the labeling stage queries every
// (vp, prefix) stream.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/message.hpp"
#include "collector/projects.hpp"
#include "topology/as_graph.hpp"
#include "topology/path_table.hpp"

namespace because::sim {
class EventQueue;
}

namespace because::collector {

/// Stable identifier of a vantage point within the store.
using VpId = std::uint32_t;

struct VpInfo {
  VpId id = 0;
  topology::AsId as = 0;
  Project project = Project::kRipeRis;
  sim::Duration export_delay = 0;
};

struct RecordedUpdate {
  sim::Time recorded_at = 0;  ///< when the collector exported it
  VpId vp = 0;
  bgp::Update update;         ///< path starts with the VP's AS
};

class UpdateStore {
 public:
  /// Creates a store with its own path table (standalone use: MRT loading,
  /// unit tests).
  UpdateStore() : paths_(std::make_shared<topology::PathTable>()) {}

  /// Creates a store sharing `paths` — pass Network::paths() so the recorded
  /// updates' PathIds stay resolvable after the Network is destroyed.
  explicit UpdateStore(std::shared_ptr<topology::PathTable> paths);

  VpId register_vp(topology::AsId as, Project project, sim::Duration export_delay);

  /// The interning table this store's PathIds refer to. Held by shared_ptr
  /// because recorded updates outlive the Network that produced them.
  topology::PathTable& paths() const { return *paths_; }
  const std::shared_ptr<topology::PathTable>& paths_ptr() const { return paths_; }

  /// The AS sequence of a recorded update (empty for withdrawals).
  std::span<const topology::AsId> path_of(const RecordedUpdate& r) const {
    return paths_->span(r.update.path);
  }

  /// Records must arrive in non-decreasing time order per VP (the event
  /// queue guarantees this). `seq` is the recording event's global sequence
  /// number (sharded campaigns; see merge_shards) — 0 when unused.
  void record(VpId vp, sim::Time recorded_at, const bgp::Update& update,
              std::uint64_t seq = 0);

  /// Defer a record by `delay` (the collector's export latency): equivalent
  /// to scheduling a closure that calls record(), but the pending update is
  /// interned in a free-listed slab and dispatched as a typed event, so the
  /// per-export heap allocation of the closure capture disappears. Scheduling
  /// order (and thus the recorded stream) is identical to the closure form.
  void schedule_record(sim::EventQueue& queue, sim::Duration delay, VpId vp,
                       const bgp::Update& update);

  const std::vector<VpInfo>& vantage_points() const { return vps_; }
  const VpInfo& vp(VpId id) const;

  /// All records in recording order.
  const std::vector<RecordedUpdate>& all() const { return records_; }

  /// Records for one (vp, prefix) stream, in time order.
  std::vector<RecordedUpdate> for_vp_prefix(VpId vp, const bgp::Prefix& prefix) const;

  /// Records for a prefix across all VPs, in time order.
  std::vector<RecordedUpdate> for_prefix(const bgp::Prefix& prefix) const;

  std::size_t size() const { return records_.size(); }

  /// Count of announcements discarded for carrying no valid beacon
  /// timestamp (the paper's invalid-aggregator observation).
  std::size_t discarded_invalid_aggregator() const { return discarded_; }

  /// Drop announcements whose beacon timestamp is missing (mirrors the
  /// paper's cleaning step). Withdrawals never carry timestamps and are kept.
  /// Clears the per-record seq log, so merge_shards must run first.
  void discard_invalid_aggregators();

  /// Merge K per-shard stores into one, restoring the exact serial recording
  /// order. Every shard record carries the global seq of its recording event
  /// (all records survive a round boundary thanks to the collector
  /// export-delay floor, so none holds a provisional seq — checked), and the
  /// event queue's pop order makes (recorded_at, seq) the serial record
  /// order. One store is already in that order and is returned as is, table
  /// included; K > 1 re-intern their paths into a fresh table. All shard
  /// stores must have registered the same VP directory (checked).
  static UpdateStore merge_shards(std::vector<UpdateStore> shards);

 private:
  /// Typed-event trampoline for schedule_record; `a` is the pending slot.
  static void record_event(sim::EventQueue& queue, void* ctx, std::uint64_t a,
                           std::uint64_t b);

  /// In-flight export payloads, slab-allocated with slot reuse.
  struct PendingRecord {
    VpId vp = 0;
    bgp::Update update;
  };

  static std::uint64_t stream_key(VpId vp, const bgp::Prefix& prefix) {
    return (static_cast<std::uint64_t>(vp) << 40) ^
           (static_cast<std::uint64_t>(prefix.id) << 8) ^ prefix.length;
  }
  void rebuild_indices();

  std::shared_ptr<topology::PathTable> paths_;
  std::vector<VpInfo> vps_;
  std::vector<RecordedUpdate> records_;
  /// Global event seq of each record (parallel to records_); only maintained
  /// while nonzero seqs are recorded, consumed by merge_shards.
  std::vector<std::uint64_t> seqs_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_stream_;
  std::unordered_map<bgp::Prefix, std::vector<std::size_t>> by_prefix_;
  std::vector<PendingRecord> pending_;
  std::vector<std::uint32_t> free_pending_;
  std::size_t discarded_ = 0;
};

}  // namespace because::collector
