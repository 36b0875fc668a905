// Attaching vantage points to routers.
//
// A vantage point is an AS whose router delivers a full feed to a collector
// project. The recording happens `export_delay` after the router's export
// (modelling collector dump latency), and a small fraction of announcements
// lose their beacon timestamp (the paper's ~1% invalid-aggregator noise).
#pragma once

#include <span>

#include "bgp/network.hpp"
#include "collector/update_store.hpp"
#include "stats/rng.hpp"

namespace because::collector {

struct VantagePointConfig {
  topology::AsId as = 0;
  Project project = Project::kRipeRis;
  /// Probability that a recorded announcement loses its beacon timestamp.
  double missing_aggregator_prob = 0.0;
};

/// Draws the VP's export delay from `rng`, registers the VP in every store
/// of `stores` (one per network shard, so each carries the same VP
/// directory), and taps the router's full feed into its own shard's store,
/// recording on that shard's queue. With a nonzero missing_aggregator_prob
/// the tap owns a noise lane forked from `lane_source` (which may be `rng`
/// itself), so record-time draws depend only on this VP's own feed — not on
/// how the rest of the network (or the shards) interleave — and callers
/// attaching VPs in a fixed order get shard-count-invariant noise.
VpId attach_vantage_point(bgp::Network& network, std::span<UpdateStore> stores,
                          const VantagePointConfig& config, stats::Rng& rng,
                          stats::Rng& lane_source);

}  // namespace because::collector
