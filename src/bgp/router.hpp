// An AS-level BGP speaker.
//
// One Router models one AS (the paper's unit of inference). It holds the
// Adj-RIB-In per neighbor, a Loc-RIB, an outbound Session per neighbor (MRAI
// + Adj-RIB-Out), and optional inbound RFD dampers scoped by neighbor and
// prefix length. Collector taps observe the router's full-feed exports.
//
// All paths are interned in the PathTable shared across the network, so the
// steady-state message path (receive -> decision -> propagate) moves 32-bit
// handles and fills member scratch buffers instead of allocating vectors.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/message.hpp"
#include "bgp/policy.hpp"
#include "bgp/rib.hpp"
#include "bgp/session.hpp"
#include "rfd/damper.hpp"
#include "sim/event_queue.hpp"
#include "topology/as_graph.hpp"
#include "topology/path_table.hpp"

namespace because::bgp {

/// Scoped RFD configuration. An AS may damp only some sessions (e.g. only
/// customers, or everyone but one neighbor, like AS 701) and only some
/// prefix lengths. The first matching rule wins.
struct DampingRule {
  /// Damp only sessions whose neighbor has this relationship (from the
  /// damping router's point of view); nullopt = any relationship.
  std::optional<topology::Relation> relation_scope;
  /// Neighbors never damped by this rule (heterogeneous configs).
  std::vector<topology::AsId> exempt_neighbors;
  /// If non-empty, damp only these neighbors.
  std::vector<topology::AsId> only_neighbors;
  /// Prefix-length window the rule applies to (inclusive).
  std::uint8_t min_prefix_length = 0;
  std::uint8_t max_prefix_length = 32;
  rfd::Params params;

  bool matches(topology::Relation neighbor_relation, topology::AsId neighbor,
               const Prefix& prefix) const;
};

class Router {
 public:
  /// Observes every full-feed export of this router (collector tap).
  using ExportTap = std::function<void(const Update&)>;

  /// `paths` is the interning table every Update/Route handle refers to; it
  /// must be shared with whoever sends to / receives from this router and
  /// must outlive it.
  Router(topology::AsId id, sim::EventQueue& queue, topology::PathTable& paths);
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;
  /// Publishes receive/memo tallies (including the RIBs' memo counters —
  /// the RIB classes themselves stay destructor-free) to the obs registry
  /// when collection is enabled.
  ~Router();

  topology::AsId id() const { return id_; }

  /// Create the outbound session to `neighbor`. `deliver` is called when an
  /// update clears MRAI; the Network adds the link delay. A nonzero
  /// `jitter` enables MRAI jitter drawn from the session's counter-hash
  /// stream keyed by `jitter_key` (see Session), so draws are independent of
  /// cross-session interleaving.
  void connect(topology::AsId neighbor, topology::Relation relation,
               sim::Duration mrai, bool mrai_on_withdrawals,
               Session::SendFn deliver, double jitter = 0.0,
               std::uint64_t jitter_key = 0);

  /// Append an RFD rule (first match wins).
  void add_damping_rule(DampingRule rule);
  bool has_damping() const { return !damping_rules_.empty(); }
  const std::vector<DampingRule>& damping_rules() const { return damping_rules_; }

  /// Register a full-feed observer; also replays the current Loc-RIB.
  void attach_export_tap(ExportTap tap);

  /// Traffic-engineering: prepend the own AS `extra` additional times on
  /// announcements exported to `neighbor` (a common way to de-prefer a
  /// link). The labeling stage strips prepending per §4.2.
  void set_export_prepending(topology::AsId neighbor, std::size_t extra);

  /// RPKI route origin validation: announcements for `prefix` are treated
  /// as RPKI-invalid and dropped on import (RFC 6811 "invalid == reject").
  /// This is the §7 substrate: ROV-filtering ASs never install or
  /// re-export an invalid prefix.
  void add_rov_invalid(const Prefix& prefix);
  bool rov_filters(const Prefix& prefix) const;

  /// Originate (or refresh, with a new beacon timestamp) a local prefix.
  void originate(const Prefix& prefix, sim::Time beacon_timestamp);

  /// Withdraw a locally originated prefix.
  void withdraw_origin(const Prefix& prefix);

  // -- Static warm-start seeding (bgp/static_converge.cpp) ------------------
  // These install pre-converged state directly, bypassing the event
  // machinery: nothing propagates, no timers run, no RFD penalty accrues.
  // They reproduce exactly the state a fully drained dynamic convergence
  // leaves behind for a prefix that was announced once and never flapped.

  /// originate() without the decision/propagation step.
  void seed_origin(const Prefix& prefix, sim::Time beacon_timestamp);

  /// Install a converged Adj-RIB-In entry (marks it seen, never suppressed).
  /// BECAUSE_CHECK fails on an unknown neighbor.
  void seed_adj_route(topology::AsId from, const Route& route);

  /// Run the decision process over the seeded state and install the winner
  /// in the Loc-RIB without propagating. Returns the stored selection, or
  /// nullptr when no candidate exists.
  const Selected* seed_decision(const Prefix& prefix);

  /// Record `update` as the last announcement sent to `neighbor` (Adj-RIB-
  /// Out) without delivering anything. BECAUSE_CHECK on unknown neighbor.
  void seed_advertised(topology::AsId neighbor, const Update& update);

  /// Handle an update received from `from` (already past the link delay).
  void receive(topology::AsId from, const Update& update);

  /// Drop all state learned from `neighbor` and resend our routes to it, as
  /// a BGP session reset would (failure injection for the 90% rule).
  void reset_session(topology::AsId neighbor);

  const LocRib& loc_rib() const { return loc_rib_; }
  const AdjRibIn& adj_rib_in() const { return adj_rib_in_; }
  const topology::PathTable& paths() const { return *paths_; }
  const Session* session(topology::AsId neighbor) const;

  /// Current decayed penalty a damper holds against (neighbor, prefix);
  /// 0 when undamped. Exposed for tests and the Figure 2 bench.
  double damping_penalty(topology::AsId neighbor, const Prefix& prefix) const;
  bool damping_suppressed(topology::AsId neighbor, const Prefix& prefix) const;

  std::uint64_t updates_received() const { return updates_received_; }

 private:
  /// One neighbor slot: flat, sorted by `id`, binary-searched on the message
  /// hot path (the old std::map cost a tree walk per received update).
  /// Sessions stay behind unique_ptr so their address is stable for typed
  /// MRAI-timer events even when the vector reallocates.
  struct NeighborEntry {
    topology::AsId id = 0;
    topology::Relation relation = topology::Relation::kCustomer;
    std::unique_ptr<Session> session;
  };

  /// Damper bucket key: (neighbor, rule index).
  using DamperKey = std::uint64_t;
  static DamperKey damper_key(topology::AsId neighbor, std::size_t rule) {
    return (static_cast<std::uint64_t>(neighbor) << 16) |
           static_cast<std::uint64_t>(rule & 0xffff);
  }

  /// Payload of a pending RFD reuse-timer event, slab-allocated so the typed
  /// event only needs a slot index.
  struct ReleaseRecord {
    topology::AsId from = 0;
    Prefix prefix;
    std::uint64_t generation = 0;
  };

  static void release_event(sim::EventQueue& queue, void* ctx, std::uint64_t a,
                            std::uint64_t b);
  void on_release_timer(std::uint32_t slot);

  NeighborEntry* find_neighbor(topology::AsId id);
  const NeighborEntry* find_neighbor(topology::AsId id) const;

  /// Damper handling the (neighbor, prefix) pair, or nullptr if undamped.
  rfd::Damper* damper_for(topology::AsId from, const Prefix& prefix);
  const rfd::Damper* damper_for(topology::AsId from, const Prefix& prefix) const;

  void run_decision(const Prefix& prefix);
  /// `selected` is the current Loc-RIB entry for `prefix` (nullptr when
  /// unreachable); the caller just wrote it, so passing it through spares a
  /// second Loc-RIB lookup per propagation.
  void propagate(const Prefix& prefix, const Selected* selected);
  void propagate_to(topology::AsId neighbor, const Prefix& prefix);
  void apply_prepending(topology::AsId neighbor, Update& update) const;
  Update desired_update_for(const Prefix& prefix, const Selected* selected) const;
  void schedule_release(topology::AsId from, const Prefix& prefix,
                        std::uint64_t generation);

  topology::AsId id_;
  sim::EventQueue& queue_;
  topology::PathTable* paths_;
  std::vector<NeighborEntry> neighbors_;  // sorted by id: determinism
  AdjRibIn adj_rib_in_;
  LocRib loc_rib_;
  std::unordered_map<Prefix, Route> originated_;
  std::vector<DampingRule> damping_rules_;
  std::unordered_map<topology::AsId, std::size_t> export_prepending_;
  std::unordered_set<Prefix> rov_invalid_;
  std::unordered_map<DamperKey, rfd::Damper> dampers_;
  std::vector<ReleaseRecord> releases_;
  std::vector<std::uint32_t> free_releases_;
  std::vector<ExportTap> export_taps_;
  /// Scratch buffers for the allocation-free query API; reused across
  /// events once warm.
  std::vector<RibCandidate> usable_scratch_;
  std::vector<Prefix> prefix_scratch_;
  std::uint64_t updates_received_ = 0;
};

}  // namespace because::bgp
