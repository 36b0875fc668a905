// Space-parallel sharded simulation: the bit-identity bar.
//
// The sharded engine's contract (DESIGN.md §5j) is that a campaign's results
// are a pure function of its config — not of the shard count. These tests pin
// that from four directions:
//
//   1. Partitioner invariants: total coverage, determinism, balance cap,
//      clamping, and the id directory.
//   2. Serial equivalence: with no record-time randomness (MRAI jitter off,
//      no aggregator noise, no session resets) a campaign's collector store,
//      labeled paths and observed paths digest BIT-FOR-BIT to the values the
//      former single-queue serial engine produced (pinned below), at every
//      shard count — including shards=1 with force_rounds, which exercises
//      the full capture/merge protocol.
//   3. Cross-K identity: with every noise source enabled (jitter, aggregator
//      noise, session resets, churn), digests agree across K=1/2/4/8 — the
//      per-session jitter hash and per-VP noise lanes make randomness a
//      function of identity, not of event interleaving.
//   4. Warm starts: both warm-start modes survive sharding, and the
//      beacon-delta digest matches the pinned serial-engine value.
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "experiment/campaign.hpp"
#include "experiment/parallel_runner.hpp"
#include "stats/rng.hpp"
#include "topology/generator.hpp"
#include "topology/partition.hpp"
#include "util/thread_pool.hpp"

namespace because {
namespace {

using topology::AsGraph;
using topology::AsId;

// --------------------------------------------------------------------------
// 1. Partitioner invariants.

AsGraph partition_graph_fixture(std::uint64_t seed, std::uint32_t ases) {
  stats::Rng rng(seed);
  return topology::generate(topology::internet_like(ases), rng);
}

TEST(Partition, CoversEveryAsWithinTheBalanceCap) {
  const AsGraph graph = partition_graph_fixture(7, 500);
  for (std::uint32_t k : {1u, 2u, 4u, 8u}) {
    topology::PartitionConfig config;
    config.shards = k;
    const topology::Partition part = topology::partition_graph(graph, config);
    ASSERT_EQ(part.shards, k);
    ASSERT_EQ(part.ids.size(), graph.as_count());
    ASSERT_EQ(part.shard_of.size(), graph.as_count());
    std::vector<std::size_t> sizes(k, 0);
    for (std::uint32_t s : part.shard_of) {
      ASSERT_LT(s, k);
      ++sizes[s];
    }
    const auto cap = static_cast<std::size_t>(
        (static_cast<double>(graph.as_count() + k - 1) / k) *
        config.balance_slack);
    for (std::uint32_t s = 0; s < k; ++s) {
      EXPECT_GT(sizes[s], 0u) << "empty shard " << s << " of " << k;
      EXPECT_LE(sizes[s], cap) << "shard " << s << " over the balance cap";
    }
    EXPECT_EQ(part.largest, *std::max_element(sizes.begin(), sizes.end()));
    EXPECT_EQ(part.smallest, *std::min_element(sizes.begin(), sizes.end()));
    if (k == 1) {
      EXPECT_EQ(part.cut_edges, 0u);
    } else {
      EXPECT_GT(part.cut_edges, 0u);  // connected graph: some edge crosses
      EXPECT_LT(part.cut_edges, part.total_edges);
    }
  }
}

TEST(Partition, IsDeterministicAndIndexedById) {
  const AsGraph graph = partition_graph_fixture(11, 300);
  topology::PartitionConfig config;
  config.shards = 4;
  const topology::Partition a = topology::partition_graph(graph, config);
  const topology::Partition b = topology::partition_graph(graph, config);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
  for (std::size_t i = 0; i < a.ids.size(); ++i)
    EXPECT_EQ(a.shard_of_id(a.ids[i]), a.shard_of[i]);
  EXPECT_THROW(a.shard_of_id(0xdeadbeef), std::out_of_range);
}

TEST(Partition, ClampsShardCountToTheAsCount) {
  AsGraph tiny;
  tiny.add_as(1, topology::Tier::kTier1);
  tiny.add_as(2, topology::Tier::kStub);
  tiny.add_provider_customer(1, 2);
  topology::PartitionConfig config;
  config.shards = 16;
  const topology::Partition part = topology::partition_graph(tiny, config);
  EXPECT_EQ(part.shards, 2u);
  EXPECT_THROW(topology::partition_graph(tiny, topology::PartitionConfig{0}),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Campaign digests (content-hashed: PathIds differ across tables by design,
// the AS sequences and record order must not).

std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t store_digest(const collector::UpdateStore& store,
                           bool beacon_delta_only = false) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const collector::RecordedUpdate& rec : store.all()) {
    if (beacon_delta_only &&
        rec.update.prefix.id >= experiment::kBaselinePrefixBase)
      continue;
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(rec.recorded_at));
    hash = fnv1a_u64(hash, rec.vp);
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(rec.update.type));
    hash = fnv1a_u64(hash,
                     (static_cast<std::uint64_t>(rec.update.prefix.id) << 8) |
                         rec.update.prefix.length);
    hash = fnv1a_u64(hash,
                     static_cast<std::uint64_t>(rec.update.beacon_timestamp));
    const auto path = store.path_of(rec);
    hash = fnv1a_u64(hash, path.size());
    for (AsId as : path) hash = fnv1a_u64(hash, as);
  }
  return hash;
}

std::uint64_t labeled_digest(const experiment::CampaignResult& result) {
  std::uint64_t hash = 14695981039346656037ULL;
  hash = fnv1a_u64(hash, result.labeled.size());
  for (const labeling::LabeledPath& p : result.labeled) {
    hash = fnv1a_u64(hash, (static_cast<std::uint64_t>(p.prefix.id) << 8) |
                               p.prefix.length);
    hash = fnv1a_u64(hash, p.vp);
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(p.rfd));
    hash = fnv1a_u64(hash, p.relevant_pairs);
    hash = fnv1a_u64(hash, p.matching_pairs);
    for (AsId as : p.path) hash = fnv1a_u64(hash, as);
  }
  hash = fnv1a_u64(hash, result.observed.size());
  return hash;
}

std::uint64_t observed_digest(const experiment::CampaignResult& result) {
  std::uint64_t hash = 14695981039346656037ULL;
  hash = fnv1a_u64(hash, result.observed.size());
  for (const labeling::ObservedPath& o : result.observed) {
    hash = fnv1a_u64(hash, (static_cast<std::uint64_t>(o.prefix.id) << 8) |
                               o.prefix.length);
    hash = fnv1a_u64(hash, o.vp);
    hash = fnv1a_u64(hash, o.path.size());
    for (AsId as : o.path) hash = fnv1a_u64(hash, as);
  }
  return hash;
}

experiment::CampaignConfig sharded_config(std::uint64_t seed, bool zero_noise) {
  experiment::CampaignConfig config = experiment::CampaignConfig::small();
  config.topology.tier1_count = 6;
  config.topology.transit_count = 30;
  config.topology.stub_count = 140;
  config.pairs = 1;
  config.burst_length = sim::minutes(6);
  config.break_length = sim::minutes(20);
  config.background_prefixes = 2;
  config.seed = seed;
  if (zero_noise) {
    config.network.mrai_jitter = 0.0;
    config.missing_aggregator_prob = 0.0;
    config.session_resets = 0;
  } else {
    config.missing_aggregator_prob = 0.02;
    config.session_resets = 2;
  }
  return config;
}

// --------------------------------------------------------------------------
// 2. Serial equivalence (no record-time randomness).

// Digests of sharded_config(17, zero_noise) as run by the serial engine
// (one EventQueue, no partition) before it was folded into the sharded
// path. The serial engine drew MRAI jitter from one shared stream and
// aggregator noise from one shared lane; with both off, it and every shard
// count must agree bit for bit.
constexpr std::uint64_t kSerialEvents = 50270;
constexpr std::size_t kSerialRecords = 3359;
constexpr std::uint64_t kSerialStoreDigest = 10721847025420399715ULL;
constexpr std::uint64_t kSerialLabeledDigest = 3901625005375934728ULL;
constexpr std::uint64_t kSerialObservedDigest = 6251593127142848489ULL;

TEST(ShardedCampaign, MatchesSerialEngineAtEveryShardCount) {
  experiment::CampaignConfig config = sharded_config(17, /*zero_noise=*/true);
  const auto expect_serial = [](const experiment::CampaignResult& got,
                                const std::string& what) {
    EXPECT_EQ(got.store.size(), kSerialRecords) << what;
    EXPECT_EQ(store_digest(got.store), kSerialStoreDigest) << what;
    EXPECT_EQ(got.events_executed, kSerialEvents) << what;
    EXPECT_EQ(labeled_digest(got), kSerialLabeledDigest) << what;
    EXPECT_EQ(observed_digest(got), kSerialObservedDigest) << what;
    EXPECT_EQ(got.store.discarded_invalid_aggregator(), 0u) << what;
  };
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    config.shards = shards;
    expect_serial(experiment::run_campaign(config),
                  std::to_string(shards) + " shards");
  }
  config.shards = 1;
  config.force_rounds = true;
  expect_serial(experiment::run_campaign(config), "1 shard, forced rounds");
}

TEST(ShardedCampaign, RejectsZeroShards) {
  experiment::CampaignConfig config = sharded_config(17, /*zero_noise=*/true);
  config.shards = 0;
  EXPECT_THROW(experiment::run_campaign(config), std::invalid_argument);
}

TEST(ShardedCampaign, ForcedRoundsMatchThePlainSingleShardRun) {
  // shards=1 with force_rounds drives every event through the round
  // capture/merge machinery; any ordering bug in the protocol shows up as a
  // digest mismatch against the plain single-shard run.
  experiment::CampaignConfig config = sharded_config(23, /*zero_noise=*/false);
  config.shards = 1;
  const experiment::CampaignResult plain = experiment::run_campaign(config);
  config.force_rounds = true;
  const experiment::CampaignResult rounds = experiment::run_campaign(config);
  ASSERT_GT(plain.store.size(), 0u);
  EXPECT_EQ(store_digest(rounds.store), store_digest(plain.store));
  EXPECT_EQ(rounds.events_executed, plain.events_executed);
}

// --------------------------------------------------------------------------
// 3. Cross-K identity with every noise source on.

TEST(ShardedCampaign, NoisyCampaignIsShardCountInvariant) {
  experiment::CampaignConfig config = sharded_config(31, /*zero_noise=*/false);
  config.shards = 1;
  const experiment::CampaignResult reference = experiment::run_campaign(config);
  const std::uint64_t want = store_digest(reference.store);
  ASSERT_GT(reference.store.size(), 0u);
  // Noise actually fired: some announcements lost their aggregator.
  EXPECT_GT(reference.store.discarded_invalid_aggregator(), 0u);

  for (std::uint32_t shards : {2u, 4u, 8u}) {
    config.shards = shards;
    const experiment::CampaignResult sharded = experiment::run_campaign(config);
    EXPECT_EQ(sharded.store.size(), reference.store.size())
        << shards << " shards";
    EXPECT_EQ(store_digest(sharded.store), want) << shards << " shards";
    EXPECT_EQ(sharded.events_executed, reference.events_executed)
        << shards << " shards";
    EXPECT_EQ(labeled_digest(sharded), labeled_digest(reference))
        << shards << " shards";
  }
}

// --------------------------------------------------------------------------
// 4. Warm starts under sharding.

/// Beacon-delta store digest of sharded_config(41, zero_noise) with a
/// dynamic warm start of 3 baseline prefixes, as the serial engine ran it.
constexpr std::uint64_t kSerialWarmDeltaDigest = 679069192121490684ULL;

TEST(ShardedCampaign, WarmStartModesMatchSerialBeaconDelta) {
  experiment::CampaignConfig config = sharded_config(41, /*zero_noise=*/true);
  config.warm_start.baseline_prefixes = 3;
  config.warm_start.horizon = sim::hours(6);

  std::vector<bgp::Prefix> baseline;
  for (const experiment::WarmStart mode :
       {experiment::WarmStart::kDynamic, experiment::WarmStart::kStatic}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      config.warm_start.mode = mode;
      config.shards = shards;
      const experiment::CampaignResult result = experiment::run_campaign(config);
      EXPECT_EQ(store_digest(result.store, true), kSerialWarmDeltaDigest)
          << "mode " << static_cast<int>(mode) << ", " << shards << " shards";
      EXPECT_EQ(result.baseline.size(), 3u);
      if (baseline.empty()) baseline = result.baseline;
      EXPECT_EQ(result.baseline, baseline);
    }
  }
}

// --------------------------------------------------------------------------
// 5. Cells x shards budget (ParallelCampaignRunner nesting heuristic).

TEST(ShardBudget, EffectiveShardsRespectsBudgetAndRequest) {
  using experiment::ParallelCampaignRunner;
  const std::size_t hw = util::ThreadPool::hardware_threads();
  std::uint32_t hw_pow2 = 1;
  while (std::size_t{hw_pow2} * 2 <= hw) hw_pow2 *= 2;

  // Single-shard requests (and the invalid 0, which run_campaign rejects)
  // pass through untouched.
  EXPECT_EQ(ParallelCampaignRunner::effective_shards(0, 8, 4), 0u);
  EXPECT_EQ(ParallelCampaignRunner::effective_shards(1, 8, 4), 1u);
  // One cell: the whole machine is the budget, capped by the request.
  EXPECT_EQ(ParallelCampaignRunner::effective_shards(64, 1, 1), hw_pow2);
  EXPECT_EQ(ParallelCampaignRunner::effective_shards(2, 1, 1),
            std::min<std::uint32_t>(2, hw_pow2));
  // A saturated pool leaves one thread per cell: shards collapse to 1.
  EXPECT_EQ(ParallelCampaignRunner::effective_shards(8, hw, 1000), 1u);
  // Requests within budget are NOT rounded to a power of two — only the
  // budget is.
  if (hw_pow2 >= 4) {
    EXPECT_EQ(ParallelCampaignRunner::effective_shards(3, 1, 1), 3u);
  }
}

TEST(ShardBudget, BudgetedRunnerMatchesExactShardResults) {
  // The budget may lower K, and K never changes results — so a budgeted
  // runner's campaigns digest identically to the exact-K reference.
  experiment::CampaignConfig config = sharded_config(53, /*zero_noise=*/false);
  config.shards = 4;
  experiment::CampaignScenario scenario{"budgeted", config};

  const experiment::CampaignResult reference = experiment::run_campaign(config);
  experiment::ParallelCampaignRunner runner(2, /*auto_shard_budget=*/true);
  const std::vector<experiment::CampaignResult> results =
      runner.run(std::vector<experiment::CampaignScenario>{scenario});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(store_digest(results[0].store), store_digest(reference.store));
  EXPECT_EQ(results[0].events_executed, reference.events_executed);
}

}  // namespace
}  // namespace because
