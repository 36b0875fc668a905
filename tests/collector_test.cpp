#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "collector/projects.hpp"
#include "collector/update_store.hpp"
#include "collector/vantage_point.hpp"

namespace because::collector {
namespace {

const bgp::Prefix kPrefix{1, 24};

/// Shared interning table for the standalone UpdateStore tests, so announce()
/// ids resolve in every store built from it.
const std::shared_ptr<topology::PathTable>& table() {
  static auto paths = std::make_shared<topology::PathTable>();
  return paths;
}

bgp::Update announce(sim::Time ts) {
  bgp::Update u;
  u.type = bgp::UpdateType::kAnnouncement;
  u.prefix = kPrefix;
  u.path = table()->intern(topology::AsPath{5, 6});
  u.beacon_timestamp = ts;
  return u;
}

TEST(Projects, Names) {
  EXPECT_EQ(to_string(Project::kRipeRis), "RIPE RIS");
  EXPECT_EQ(to_string(Project::kRouteViews), "RouteViews");
  EXPECT_EQ(to_string(Project::kIsolario), "Isolario");
}

TEST(Projects, DelayProfiles) {
  stats::Rng rng(1);
  // RouteViews: exactly 50 s, always.
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(draw_export_delay(Project::kRouteViews, rng), sim::seconds(50));
  // Isolario: within 30 s.
  for (int i = 0; i < 50; ++i) {
    const sim::Duration d = draw_export_delay(Project::kIsolario, rng);
    EXPECT_GE(d, sim::seconds(5));
    EXPECT_LE(d, sim::seconds(30));
  }
  // RIS: diverse, up to 90 s.
  sim::Duration lo = sim::hours(1), hi = 0;
  for (int i = 0; i < 200; ++i) {
    const sim::Duration d = draw_export_delay(Project::kRipeRis, rng);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, sim::seconds(20));
  EXPECT_GT(hi, sim::seconds(60));
}

TEST(UpdateStore, RegisterAndQueryVps) {
  UpdateStore store;
  const VpId a = store.register_vp(10, Project::kRipeRis, sim::seconds(5));
  const VpId b = store.register_vp(11, Project::kIsolario, sim::seconds(9));
  EXPECT_EQ(store.vantage_points().size(), 2u);
  EXPECT_EQ(store.vp(a).as, 10u);
  EXPECT_EQ(store.vp(b).project, Project::kIsolario);
  EXPECT_THROW(store.vp(99), std::out_of_range);
}

TEST(UpdateStore, RecordAndRetrieveByStream) {
  UpdateStore store(table());
  const VpId a = store.register_vp(10, Project::kRipeRis, 0);
  const VpId b = store.register_vp(11, Project::kRipeRis, 0);
  store.record(a, 100, announce(1));
  store.record(b, 150, announce(1));
  store.record(a, 200, announce(2));

  const auto stream_a = store.for_vp_prefix(a, kPrefix);
  ASSERT_EQ(stream_a.size(), 2u);
  EXPECT_EQ(stream_a[0].recorded_at, 100);
  EXPECT_EQ(stream_a[1].recorded_at, 200);

  const auto all = store.for_prefix(kPrefix);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].recorded_at, 150);  // time-sorted across VPs
  EXPECT_EQ(store.size(), 3u);
}

TEST(UpdateStore, UnknownQueriesAreEmpty) {
  UpdateStore store;
  store.register_vp(10, Project::kRipeRis, 0);
  EXPECT_TRUE(store.for_vp_prefix(0, bgp::Prefix{7, 24}).empty());
  EXPECT_TRUE(store.for_prefix(bgp::Prefix{7, 24}).empty());
}

TEST(UpdateStore, RecordRejectsUnknownVp) {
  UpdateStore store(table());
  EXPECT_THROW(store.record(0, 1, announce(1)), std::out_of_range);
}

TEST(UpdateStore, DiscardInvalidAggregators) {
  UpdateStore store(table());
  const VpId a = store.register_vp(10, Project::kRipeRis, 0);
  store.record(a, 100, announce(1));
  bgp::Update missing = announce(2);
  missing.beacon_timestamp = bgp::kNoBeaconTimestamp;
  store.record(a, 150, missing);
  bgp::Update w;
  w.type = bgp::UpdateType::kWithdrawal;
  w.prefix = kPrefix;
  store.record(a, 200, w);

  store.discard_invalid_aggregators();
  EXPECT_EQ(store.discarded_invalid_aggregator(), 1u);
  const auto stream = store.for_vp_prefix(a, kPrefix);
  ASSERT_EQ(stream.size(), 2u);  // the valid A and the W survive
  EXPECT_TRUE(stream[0].update.is_announcement());
  EXPECT_TRUE(stream[1].update.is_withdrawal());
}

TEST(UpdateStore, MergeHandsOneShardOverUnchanged) {
  // One shard's store is already in (recorded_at, seq) order: the merge
  // returns it as is, path table included, instead of re-interning a copy.
  UpdateStore store(table());
  const VpId a = store.register_vp(10, Project::kRipeRis, 0);
  store.record(a, 100, announce(1), 1);
  store.record(a, 200, announce(2), 2);
  std::vector<UpdateStore> shards;
  shards.push_back(std::move(store));
  const UpdateStore merged = UpdateStore::merge_shards(std::move(shards));
  EXPECT_EQ(merged.paths_ptr(), table());
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.all()[1].recorded_at, 200);
  EXPECT_EQ(merged.all()[1].update.path, announce(2).path);
}

TEST(UpdateStore, MergeOrdersShardsByTimeThenSeq) {
  auto other_table = std::make_shared<topology::PathTable>();
  std::vector<UpdateStore> shards;
  shards.emplace_back(table());
  shards.emplace_back(other_table);
  for (UpdateStore& shard : shards) shard.register_vp(10, Project::kRipeRis, 0);
  shards[0].record(0, 100, announce(1), 7);
  bgp::Update on_other = announce(2);  // interned in shard 1's own table
  on_other.path = other_table->intern(topology::AsPath{7, 5, 6});
  shards[1].record(0, 100, on_other, 3);
  shards[0].record(0, 50, announce(3), 9);
  const UpdateStore merged = UpdateStore::merge_shards(std::move(shards));
  EXPECT_NE(merged.paths_ptr(), table());
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.all()[0].update.beacon_timestamp, 3);
  EXPECT_EQ(merged.all()[1].update.beacon_timestamp, 2);
  EXPECT_EQ(merged.all()[2].update.beacon_timestamp, 1);
  EXPECT_EQ(merged.paths().to_path(merged.all()[1].update.path),
            (topology::AsPath{7, 5, 6}));
  EXPECT_EQ(merged.paths().to_path(merged.all()[2].update.path),
            (topology::AsPath{5, 6}));
}

TEST(VantagePoint, RecordsRouterExportsWithDelay) {
  topology::AsGraph graph;
  graph.add_as(1, topology::Tier::kStub);
  graph.add_as(2, topology::Tier::kTier1);
  graph.add_provider_customer(2, 1);

  sim::EventQueue queue;
  stats::Rng rng(3);
  bgp::Network net(graph, bgp::NetworkConfig{}, queue, rng);

  UpdateStore store(net.paths());
  VantagePointConfig config;
  config.as = 2;
  config.project = Project::kRouteViews;  // fixed 50 s export delay
  const VpId vp = attach_vantage_point(net, {&store, 1}, config, rng, rng);

  net.router(1).originate(kPrefix, 0);
  queue.run();

  const auto stream = store.for_vp_prefix(vp, kPrefix);
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_TRUE(stream[0].update.is_announcement());
  // Path starts at the VP AS and ends at the origin.
  EXPECT_EQ(store.paths().to_path(stream[0].update.path),
            (topology::AsPath{2, 1}));
  // Recorded >= link delay + 50 s export delay.
  EXPECT_GE(stream[0].recorded_at, sim::seconds(50));
}

TEST(VantagePoint, NoiseDropsAggregatorTimestamps) {
  topology::AsGraph graph;
  graph.add_as(1, topology::Tier::kStub);
  graph.add_as(2, topology::Tier::kTier1);
  graph.add_provider_customer(2, 1);

  sim::EventQueue queue;
  stats::Rng rng(5);
  bgp::Network net(graph, bgp::NetworkConfig{}, queue, rng);

  UpdateStore store(net.paths());
  VantagePointConfig config;
  config.as = 2;
  config.missing_aggregator_prob = 1.0;  // every announcement loses its ts
  const VpId vp = attach_vantage_point(net, {&store, 1}, config, rng, rng);

  net.router(1).originate(kPrefix, 7);
  queue.run();

  const auto stream = store.for_vp_prefix(vp, kPrefix);
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0].update.beacon_timestamp, bgp::kNoBeaconTimestamp);
}

}  // namespace
}  // namespace because::collector
