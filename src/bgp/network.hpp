// The simulated inter-domain network: one Router per AS, linked according to
// an AsGraph, driven by a shared EventQueue.
//
// Link propagation delays are drawn once per link (both directions equal)
// from a seeded RNG, so a (topology, seed) pair replays identically.
//
// Storage is dense: routers live in a contiguous vector addressed by the AS's
// rank in the sorted id list, and link delays sit in a CSR table over those
// dense indices. Message delivery is a typed simulator event whose payload
// (destination, sender, Update) is slab-allocated and recycled, so the per-
// message cost is a couple of binary searches instead of hash lookups plus
// closure allocations.
//
// The network runs on K shard EventQueues for the space-parallel engine
// (sim/sharded_engine.hpp); a plain single-queue network is the one-shard
// case of the same wiring. Each router schedules on its shard's queue and
// interns AS paths into its shard's table, delivery payloads live in
// per-shard slabs so round workers never touch another shard's memory, and
// MRAI jitter comes from per-session counter-hash streams so draws don't
// depend on cross-session interleaving. translate_capture() is the engine's
// dispatcher hook: it moves a captured cross-shard delivery into the
// destination shard's slab and path table between rounds.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bgp/router.hpp"
#include "sim/event_queue.hpp"
#include "stats/rng.hpp"
#include "topology/as_graph.hpp"
#include "topology/path_table.hpp"

namespace because::bgp {

struct NetworkConfig {
  sim::Duration mrai = sim::seconds(30);
  bool mrai_on_withdrawals = false;
  /// MRAI jitter fraction per RFC 4271: each window is drawn uniformly from
  /// [(1 - jitter) * mrai, mrai]. 0 disables jitter.
  double mrai_jitter = 0.25;
  sim::Duration min_link_delay = sim::milliseconds(10);
  sim::Duration max_link_delay = sim::milliseconds(800);
};

/// Per-shard wiring for the space-parallel engine: queue s drives the routers
/// of shard s, which intern their AS paths into tables[s]. All queues must be
/// bound to one shared seq counter by the caller; both vectors have one
/// entry per shard and shard_of has one entry per AS (by
/// dense index, i.e. the AS's rank in the sorted id list — the same order
/// topology::Partition uses).
struct NetworkShards {
  std::vector<sim::EventQueue*> queues;
  std::vector<std::shared_ptr<topology::PathTable>> tables;
  std::vector<std::uint32_t> shard_of;
};

class Network {
 public:
  /// Builds routers and sessions for every AS/link in `graph` on one shard
  /// driven by `queue`, with a fresh path table (see paths()).
  Network(const topology::AsGraph& graph, const NetworkConfig& config,
          sim::EventQueue& queue, stats::Rng& rng);

  /// Sharded construction. `rng` is used only during construction (link
  /// delays, then one draw for the jitter hash seed) — runtime jitter comes
  /// from per-session hash streams, never from `rng`, so results are
  /// shard-count-invariant. paths() aliases shards.tables[0].
  Network(const topology::AsGraph& graph, const NetworkConfig& config,
          const NetworkShards& shards, stats::Rng& rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Router& router(topology::AsId id);
  const Router& router(topology::AsId id) const;
  bool contains(topology::AsId id) const { return find_index(id) >= 0; }

  const topology::AsGraph& graph() const { return graph_; }

  /// Shard 0's AS-path interning table — every router's table when there is
  /// one shard; use table_for() for a specific router's table. Shared so
  /// collectors and stores can outlive the Network.
  const std::shared_ptr<topology::PathTable>& paths() const { return paths_; }

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shard_queues_.size());
  }
  std::uint32_t shard_of(topology::AsId id) const {
    return shard_of_[dense_index(id)];
  }
  /// The queue that drives `id`'s router / the table its PathIds live in
  /// (the one queue and *paths() for every AS when there is one shard).
  sim::EventQueue& queue_for(topology::AsId id) {
    return *shard_queues_[shard_of(id)];
  }
  topology::PathTable& table_for(topology::AsId id) {
    return *shard_tables_[shard_of(id)];
  }

  /// Minimum link delay across partition-cut edges — the upper bound on the
  /// sharded engine's lookahead. Duration max when no edge crosses a cut
  /// (one shard).
  sim::Duration min_cut_delay() const { return min_cut_delay_; }

  /// ShardedEngine dispatcher hook: if `cap` is one of this network's
  /// delivery events bound for another shard, move its payload into the
  /// destination shard's slab, re-intern the AS path into the destination
  /// table, rewrite the capture, and return the destination shard. Every
  /// other capture is returned to `src_shard` untouched. Coordinator thread
  /// only (between rounds).
  std::uint32_t translate_capture(std::uint32_t src_shard,
                                  sim::EventQueue::CapturedEvent& cap);

  /// One-way propagation delay of the (a, b) link.
  sim::Duration link_delay(topology::AsId a, topology::AsId b) const;

  /// Reset the BGP session between `a` and `b` on both sides (failure
  /// injection: routes are dropped and re-advertised).
  void reset_session(topology::AsId a, topology::AsId b);

  std::size_t router_count() const { return routers_.size(); }

 private:
  /// CSR edge: neighbor's dense index plus the undirected link delay.
  struct Link {
    std::uint32_t to = 0;
    sim::Duration delay = 0;
  };

  /// Sentinel marking a free delivery slot.
  static constexpr std::uint32_t kFreeSlot = 0xffffffffu;

  /// Slab-allocated payload of an in-flight kBgpDelivery event. Trivially
  /// copyable now that Update carries a PathId, so recycling a slot is a
  /// plain store.
  struct PendingDelivery {
    std::uint32_t to_index = kFreeSlot;
    topology::AsId from = 0;
    Update update;
  };

  /// One delivery slab per shard: a round worker allocates and frees only in
  /// its own shard's slab, so the hot path stays lock-free under sharding.
  struct DeliverySlab {
    std::vector<PendingDelivery> slots;
    std::vector<std::uint32_t> free;
  };

  /// Dense index of `id`, or -1 when the AS is unknown.
  std::ptrdiff_t find_index(topology::AsId id) const;

  /// Dense index of `id`; throws std::out_of_range when the AS is missing
  /// from the sorted id directory (an inconsistent adjacency list would
  /// otherwise produce a bogus uint32 index into routers_/links_).
  std::uint32_t dense_index(topology::AsId id) const;

  static std::uint32_t alloc_slot(DeliverySlab& slab);

  /// `a` = slot index, `b` = slab (shard) index.
  static void delivery_event(sim::EventQueue& queue, void* ctx,
                             std::uint64_t a, std::uint64_t b);
  void on_delivery(std::uint32_t shard, std::uint32_t slot);
  void deliver_in(sim::Duration delay, std::uint32_t to_index,
                  std::uint32_t from_index, const Update& update);

  const topology::AsGraph& graph_;
  NetworkConfig config_;
  std::shared_ptr<topology::PathTable> paths_;
  std::vector<sim::EventQueue*> shard_queues_;
  std::vector<std::shared_ptr<topology::PathTable>> shard_tables_;
  std::vector<std::uint32_t> shard_of_;
  /// Seed of the per-session jitter hash streams.
  std::uint64_t jitter_seed_ = 0;
  sim::Duration min_cut_delay_ = std::numeric_limits<sim::Duration>::max();
  /// Sorted AS ids; position = dense index used by routers_ and the CSR.
  std::vector<topology::AsId> ids_;
  /// Routers by dense index; unique_ptr keeps addresses stable for the
  /// delivery slab and session callbacks.
  std::vector<std::unique_ptr<Router>> routers_;
  /// CSR link table: links_[link_offsets_[i] .. link_offsets_[i+1]) are the
  /// edges of dense index i, sorted by `to`.
  std::vector<std::uint32_t> link_offsets_;
  std::vector<Link> links_;
  /// In-flight delivery payloads, one slab per shard.
  std::vector<DeliverySlab> delivery_slabs_;
};

}  // namespace because::bgp
