// Scale smoke tests (ctest label: slow).
//
// These lock in the point of the typed engine and dense network storage:
// thousands-of-ASes simulations must stay tractable. A ~5k-AS network has to
// converge on a single originated prefix within explicit event and simulated-
// time budgets, and a minimal 10k-AS beacon campaign has to run end to end.
// The budgets are deliberately generous (they guard against algorithmic
// blowups — unbounded path hunting, calendar-queue degeneration — not against
// constant factors); bench/bench_sim tracks the actual throughput numbers.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "bgp/network.hpp"
#include "experiment/campaign.hpp"
#include "stats/rng.hpp"
#include "topology/generator.hpp"

namespace because {
namespace {

TEST(SimScale, FiveThousandAsNetworkConvergesWithinBudget) {
  topology::GeneratorConfig tcfg;
  tcfg.tier1_count = 10;
  tcfg.transit_count = 600;
  tcfg.stub_count = 4400;
  stats::Rng rng(11);
  const topology::AsGraph graph = topology::generate(tcfg, rng);
  ASSERT_EQ(graph.as_count(), 5010u);

  sim::EventQueue queue;
  stats::Rng net_rng = rng.fork();
  bgp::Network network(graph, bgp::NetworkConfig{}, queue, net_rng);

  // Originate one prefix at a stub and let BGP converge.
  topology::AsId origin = 0;
  for (topology::AsId as : graph.as_ids())
    if (graph.tier(as) == topology::Tier::kStub) {
      origin = as;
      break;
    }
  ASSERT_NE(origin, 0u);
  const bgp::Prefix prefix{1, 24};
  network.router(origin).originate(prefix, 0);
  queue.run();

  // Gao-Rexford export lets a customer-originated route reach every AS.
  std::size_t reached = 0;
  for (topology::AsId as : graph.as_ids())
    if (network.router(as).loc_rib().find(prefix) != nullptr) ++reached;
  EXPECT_GE(reached, (graph.as_count() * 95) / 100);

  // Budgets: convergence is a bounded cascade, not an open-ended churn.
  EXPECT_LT(queue.executed(), 5'000'000u);
  EXPECT_LT(queue.now(), sim::hours(2));
}

// --------------------------------------------------------------------------
// Campaign digests at scale: event count, record count and an FNV-1a hash of
// the collector trace, pinned at 1k and 5k ASes. Captured with per-session
// MRAI jitter streams and per-VP aggregator-noise lanes, the only random
// streams a campaign draws at record time.

std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t digest_store(const collector::UpdateStore& store) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const collector::RecordedUpdate& rec : store.all()) {
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(rec.recorded_at));
    hash = fnv1a_u64(hash, rec.vp);
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(rec.update.type));
    hash = fnv1a_u64(hash, (static_cast<std::uint64_t>(rec.update.prefix.id) << 8) |
                               rec.update.prefix.length);
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(rec.update.beacon_timestamp));
    const auto path = store.path_of(rec);
    hash = fnv1a_u64(hash, path.size());
    for (topology::AsId as : path) hash = fnv1a_u64(hash, as);
  }
  return hash;
}

experiment::CampaignConfig digest_scale_config(std::uint32_t transit,
                                                std::uint32_t stubs,
                                                std::uint64_t seed) {
  experiment::CampaignConfig config = experiment::CampaignConfig::small();
  config.topology.tier1_count = 8;
  config.topology.transit_count = transit;
  config.topology.stub_count = stubs;
  config.pairs = 1;
  config.burst_length = sim::minutes(8);
  config.break_length = sim::minutes(30);
  config.background_prefixes = 2;
  config.session_resets = 1;
  config.seed = seed;
  return config;
}

void expect_campaign_digest(const experiment::CampaignConfig& config,
                            std::uint64_t events, std::size_t records,
                            std::uint64_t digest) {
  const experiment::CampaignResult result = experiment::run_campaign(config);
  EXPECT_EQ(result.events_executed, events);
  ASSERT_EQ(result.store.size(), records);
  EXPECT_EQ(digest_store(result.store), digest);
}

TEST(SimScale, CampaignDigestPinnedAtOneThousandAses) {
  expect_campaign_digest(digest_scale_config(120, 880, 5), 385518,
                         4479, 17856528359732100368ULL);
}

TEST(SimScale, CampaignDigestPinnedAtFiveThousandAses) {
  expect_campaign_digest(digest_scale_config(500, 4500, 9), 1166170,
                         2823, 8907131919537969899ULL);
}

TEST(SimScale, TenThousandAsCampaignCompletes) {
  experiment::CampaignConfig config = experiment::CampaignConfig::small();
  config.topology.tier1_count = 12;
  config.topology.transit_count = 1000;
  config.topology.stub_count = 9000;
  config.beacon_sites = 1;
  config.update_intervals = {sim::minutes(2)};
  config.prefixes_per_interval = 1;
  config.burst_length = sim::minutes(6);
  config.break_length = sim::minutes(20);
  config.pairs = 1;
  config.include_anchor = false;
  config.include_ripe_reference = false;
  config.vantage_points = 8;
  config.background_prefixes = 0;
  config.session_resets = 0;
  config.seed = 3;

  const experiment::CampaignResult result = experiment::run_campaign(config);
  EXPECT_GT(result.events_executed, 0u);
  EXPECT_GT(result.store.size(), 0u);
  EXPECT_FALSE(result.observed.empty());
}

}  // namespace
}  // namespace because
