#include "collector/vantage_point.hpp"

#include <optional>

#include "util/contracts.hpp"

namespace because::collector {

VpId attach_vantage_point(bgp::Network& network, std::span<UpdateStore> stores,
                          const VantagePointConfig& config, stats::Rng& rng,
                          stats::Rng& lane_source) {
  BECAUSE_CHECK(stores.size() == network.shard_count(),
                "attach_vantage_point: " << stores.size() << " stores for "
                                         << network.shard_count() << " shards");
  const sim::Duration delay = draw_export_delay(config.project, rng);
  const VpId id = stores[0].register_vp(config.as, config.project, delay);
  for (UpdateStore& other : stores.subspan(1)) {
    const VpId other_id = other.register_vp(config.as, config.project, delay);
    BECAUSE_ASSERT(other_id == id, "attach_vantage_point: shard VP id "
                                       << other_id << " != " << id);
  }

  sim::EventQueue& queue = network.queue_for(config.as);
  UpdateStore* store = &stores[network.shard_of(config.as)];
  const double missing_prob = config.missing_aggregator_prob;
  std::optional<stats::Rng> lane;
  if (missing_prob > 0.0) lane.emplace(lane_source.fork());

  network.router(config.as).attach_export_tap(
      [&queue, store, id, delay, missing_prob,
       lane = std::move(lane)](const bgp::Update& update) mutable {
        bgp::Update recorded = update;
        if (recorded.is_announcement() && lane && lane->bernoulli(missing_prob))
          recorded.beacon_timestamp = bgp::kNoBeaconTimestamp;
        // Typed deferral through the store's pending slab: no per-export
        // closure allocation.
        store->schedule_record(queue, delay, id, recorded);
      });
  return id;
}

}  // namespace because::collector
