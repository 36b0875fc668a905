// Golden-trace determinism lock for the simulation engine.
//
// A small fixed-seed Burst/Break campaign (with anchors, background churn and
// session resets, so every event kind is exercised) is reduced to a compact
// digest: the executed-event count plus an FNV-1a hash over the full collector
// update stream. Any change that alters the observable behaviour of the
// simulator — event ordering, RNG consumption order, delivery timing — shows
// up as a digest mismatch. The constants come from the seed engine, with two
// deliberate changes since: session resets re-advertise prefixes in the
// ascending-prefix order of bgp/rib.hpp, and MRAI jitter and aggregator
// noise draw from per-session and per-VP streams rather than one shared
// stream each (the draws are equal in distribution, not in value).
#include <gtest/gtest.h>

#include <cstdint>

#include "experiment/campaign.hpp"

namespace because {
namespace {

std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Hash every recorded update: receive time, vantage point, update type,
/// prefix, beacon timestamp and the full AS path.
std::uint64_t digest_store(const collector::UpdateStore& store) {
  std::uint64_t hash = kFnvOffset;
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

experiment::CampaignConfig golden_config() {
  experiment::CampaignConfig config = experiment::CampaignConfig::small();
  config.pairs = 2;
  config.burst_length = sim::minutes(12);
  config.break_length = sim::minutes(50);
  config.anchor_cycles = 1;
  config.background_prefixes = 4;
  config.session_resets = 2;
  config.seed = 7;
  return config;
}

// See file comment.
constexpr std::uint64_t kExpectedEvents = 154865;
constexpr std::uint64_t kExpectedRecords = 18039;
constexpr std::uint64_t kExpectedDigest = 4441158318962940301ULL;

TEST(SimGoldenTrace, CampaignTraceMatchesSeedEngine) {
  const experiment::CampaignResult result = experiment::run_campaign(golden_config());
  EXPECT_EQ(result.events_executed, kExpectedEvents);
  EXPECT_EQ(result.store.size(), kExpectedRecords);
  EXPECT_EQ(digest_store(result.store), kExpectedDigest);
}

TEST(SimGoldenTrace, TraceIsReproducibleAcrossRuns) {
  const experiment::CampaignResult a = experiment::run_campaign(golden_config());
  const experiment::CampaignResult b = experiment::run_campaign(golden_config());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(digest_store(a.store), digest_store(b.store));
}

}  // namespace
}  // namespace because
