#include "bgp/static_converge.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "bgp/policy.hpp"
#include "obs/metrics.hpp"
#include "topology/ranking.hpp"
#include "util/contracts.hpp"

namespace because::bgp {
namespace {

/// Converged per-AS state for one prefix during the sweeps.
struct Best {
  bool has = false;
  bool local = false;  ///< locally originated (neighbor/relation unused)
  topology::AsId neighbor = 0;
  topology::Relation relation = topology::Relation::kCustomer;
  topology::PathId path = topology::kEmptyPath;  ///< excluding the owner
  sim::Time ts = kNoBeaconTimestamp;
};

topology::Relation invert(topology::Relation r) {
  switch (r) {
    case topology::Relation::kCustomer: return topology::Relation::kProvider;
    case topology::Relation::kProvider: return topology::Relation::kCustomer;
    case topology::Relation::kPeer: return topology::Relation::kPeer;
  }
  return topology::Relation::kPeer;  // unreachable
}

/// Fold `cand` into `cur` with the real decision-process preference order,
/// so the sweeps and Router::run_decision() can never disagree on ties.
void merge(Best& cur, const Best& cand, const Prefix& prefix,
           const topology::PathTable& paths) {
  if (!cur.has) {
    cur = cand;
    return;
  }
  const Route cand_route{prefix, cand.path, cand.ts};
  const Route cur_route{prefix, cur.path, cur.ts};
  const Candidate a{cand.local ? std::nullopt : std::optional(cand.neighbor),
                    cand.relation, &cand_route};
  const Candidate b{cur.local ? std::nullopt : std::optional(cur.neighbor),
                    cur.relation, &cur_route};
  if (prefer(a, b, paths)) cur = cand;
}

/// The sweep computes everything in one table (`sweep`, shard 0's), but a
/// router's seeded state must use PathIds from its own shard's table — the
/// ids it will produce and compare against at runtime. Interning across two
/// distinct tables is safe (interning into dst never invalidates sweep's
/// spans); a router on shard 0 keeps the sweep's id as is.
topology::PathId localize(Network& network, const topology::PathTable& sweep,
                          topology::AsId owner, topology::PathId path) {
  if (path == topology::kEmptyPath) return path;
  topology::PathTable& dst = network.table_for(owner);
  if (&dst == &sweep) return path;
  return dst.intern(sweep.span(path));
}

}  // namespace

StaticConvergeStats static_converge(Network& network,
                                    const std::vector<StaticOrigin>& origins) {
  StaticConvergeStats stats;
  const topology::AsGraph& graph = network.graph();
  topology::PathTable& paths = *network.paths();
  const topology::HierarchyRanking ranking = topology::rank_hierarchy(graph);
  const std::size_t n = ranking.ids.size();

  // Group origins by prefix, preserving first-appearance order.
  std::vector<Prefix> prefix_order;
  std::unordered_map<Prefix, std::vector<std::size_t>> by_prefix;
  for (std::size_t i = 0; i < origins.size(); ++i) {
    BECAUSE_CHECK(network.contains(origins[i].as),
                  "static_converge: origin AS " << origins[i].as
                                                << " not in network");
    auto [it, inserted] = by_prefix.try_emplace(origins[i].prefix);
    if (inserted) prefix_order.push_back(origins[i].prefix);
    it->second.push_back(i);
  }

  std::vector<Best> best(n), up_snapshot(n);
  std::vector<char> rov(n);

  for (const Prefix& prefix : prefix_order) {
    std::fill(best.begin(), best.end(), Best{});
    for (std::size_t i = 0; i < n; ++i)
      rov[i] = network.router(ranking.ids[i]).rov_filters(prefix) ? 1 : 0;
    for (const std::size_t oi : by_prefix[prefix]) {
      Best local;
      local.has = true;
      local.local = true;
      local.ts = origins[oi].beacon_timestamp;
      // Local origins are immune to the receiver-side ROV filter, exactly as
      // originate() is: the filter applies on import only.
      merge(best[ranking.index_of(origins[oi].as)], local, prefix, paths);
    }

    // UP: ascending (rank, id); customers' bests are final customer routes.
    for (const std::uint32_t vi : ranking.order) {
      const topology::AsId v = ranking.ids[vi];
      ++stats.up_visits;
      if (rov[vi]) continue;
      for (const topology::Neighbor& nb : graph.neighbors(v)) {
        if (nb.relation != topology::Relation::kCustomer) continue;
        const Best& bc = best[ranking.index_of(nb.id)];
        // A customer's up-best is customer/local-learned by construction, so
        // the Gao-Rexford export to its provider is always allowed and can
        // never point back to the provider.
        if (!bc.has) continue;
        Best cand;
        cand.has = true;
        cand.neighbor = nb.id;
        cand.relation = topology::Relation::kCustomer;
        cand.path = paths.prepend(nb.id, bc.path);
        cand.ts = bc.ts;
        if (paths.contains(cand.path, v)) continue;  // receiver loop drop
        merge(best[vi], cand, prefix, paths);
      }
    }

    // ACROSS: one round over the UP snapshot (peer routes are never
    // re-exported to peers, so a single exchange is the fixpoint).
    up_snapshot = best;
    for (const std::uint32_t vi : ranking.order) {
      const topology::AsId v = ranking.ids[vi];
      ++stats.across_visits;
      if (rov[vi]) continue;
      for (const topology::Neighbor& nb : graph.neighbors(v)) {
        if (nb.relation != topology::Relation::kPeer) continue;
        const Best& bw = up_snapshot[ranking.index_of(nb.id)];
        if (!bw.has) continue;  // peers only export customer/local routes
        Best cand;
        cand.has = true;
        cand.neighbor = nb.id;
        cand.relation = topology::Relation::kPeer;
        cand.path = paths.prepend(nb.id, bw.path);
        cand.ts = bw.ts;
        if (paths.contains(cand.path, v)) continue;
        merge(best[vi], cand, prefix, paths);
      }
    }

    // DOWN: descending (rank, id); every provider's best is already final
    // because providers sit at strictly higher ranks.
    for (auto it = ranking.order.rbegin(); it != ranking.order.rend(); ++it) {
      const std::uint32_t vi = *it;
      const topology::AsId v = ranking.ids[vi];
      ++stats.down_visits;
      if (rov[vi]) continue;
      for (const topology::Neighbor& nb : graph.neighbors(v)) {
        if (nb.relation != topology::Relation::kProvider) continue;
        const Best& bw = best[ranking.index_of(nb.id)];
        if (!bw.has) continue;
        if (!bw.local && bw.neighbor == v) continue;  // back to source
        Best cand;
        cand.has = true;
        cand.neighbor = nb.id;
        cand.relation = topology::Relation::kProvider;
        cand.path = paths.prepend(nb.id, bw.path);
        cand.ts = bw.ts;
        if (paths.contains(cand.path, v)) continue;
        merge(best[vi], cand, prefix, paths);
      }
    }

    // Seed the network in canonical order: origins, then per receiving AS
    // (ascending id) the Adj-RIB-In/Out state of each incident edge, then
    // the decisions.
    for (const std::size_t oi : by_prefix[prefix])
      network.router(origins[oi].as)
          .seed_origin(prefix, origins[oi].beacon_timestamp);

    for (std::size_t vi = 0; vi < n; ++vi) {
      const topology::AsId v = ranking.ids[vi];
      for (const topology::Neighbor& nb : graph.neighbors(v)) {
        const topology::AsId u = nb.id;
        const Best& bu = best[ranking.index_of(u)];
        if (!bu.has) continue;
        if (!bu.local && bu.neighbor == v) continue;  // sends a withdrawal
        const std::optional<topology::Relation> learned_from =
            bu.local ? std::nullopt : std::optional(bu.relation);
        if (!should_export(learned_from, invert(nb.relation))) continue;
        const Update sent{UpdateType::kAnnouncement, prefix,
                          paths.prepend(u, bu.path), bu.ts};
        Update sent_u = sent;
        sent_u.path = localize(network, paths, u, sent.path);
        network.router(u).seed_advertised(v, sent_u);
        ++stats.seeded_sessions;
        if (paths.contains(sent.path, v)) continue;  // v drops the loop
        if (rov[vi]) continue;                       // v drops RPKI-invalid
        const topology::PathId path_v = localize(network, paths, v, sent.path);
        network.router(v).seed_adj_route(
            u, Route{prefix, path_v, sent.beacon_timestamp});
        ++stats.seeded_routes;
      }
    }

    std::uint64_t reach = 0;
    for (std::size_t vi = 0; vi < n; ++vi) {
      const topology::AsId v = ranking.ids[vi];
      const Selected* sel = network.router(v).seed_decision(prefix);
      const Best& bv = best[vi];
      if (!bv.has) {
        BECAUSE_CHECK(sel == nullptr,
                      "static_converge: AS " << v
                                             << " selected a route the sweep "
                                                "did not compute");
        continue;
      }
      BECAUSE_CHECK(sel != nullptr,
                    "static_converge: AS " << v << " lost its swept route");
      const bool neighbor_match =
          bv.local ? !sel->neighbor.has_value()
                   : (sel->neighbor.has_value() && *sel->neighbor == bv.neighbor);
      const topology::PathId expect_path = localize(network, paths, v, bv.path);
      BECAUSE_CHECK(neighbor_match && sel->route.path == expect_path &&
                        sel->route.beacon_timestamp == bv.ts,
                    "static_converge: phase/decision divergence at AS " << v);
      ++reach;
    }
    stats.reachable_ases += reach;
    obs::observe(obs::Histo::kStaticReach, reach);
  }

  obs::add(obs::Counter::kStaticUpVisits, stats.up_visits);
  obs::add(obs::Counter::kStaticAcrossVisits, stats.across_visits);
  obs::add(obs::Counter::kStaticDownVisits, stats.down_visits);
  obs::add(obs::Counter::kStaticSeededRoutes, stats.seeded_routes);
  return stats;
}

}  // namespace because::bgp
