// Golden trace-export lock for the obs subsystem (ctest label: obs).
//
// The golden campaign from sim_golden_trace_test runs with metrics and
// tracing fully enabled; the rendered Chrome-trace JSON is reduced to an
// FNV-1a digest over its bytes. The expected constants below were captured
// when the subsystem landed. Two properties are pinned at once: the exporter
// output is stable (event set, merge order, JSON shape), and enabling
// instrumentation does not perturb the simulation — the campaign must still
// reproduce the seed engine's event count, record count and update digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/campaign.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace because {
namespace {

std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t fnv1a_bytes(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Same reduction as sim_golden_trace_test: the collector update stream.
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

struct ObsGuard {
  ObsGuard() {
    obs::set_enabled(true);
    obs::reset();
    obs::set_trace_enabled(true);
    obs::trace_reset();
  }
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::reset();
    obs::set_trace_enabled(false);
    obs::trace_reset();
  }
};

// Golden-campaign constants from sim_golden_trace_test — the instrumented run
// must reproduce them exactly.
constexpr std::uint64_t kExpectedEvents = 154865;
constexpr std::uint64_t kExpectedRecords = 18039;
constexpr std::uint64_t kExpectedDigest = 4441158318962940301ULL;

// Event count and byte digest of the rendered Chrome-trace JSON for the
// golden campaign (re-pinned with the golden trace when RIB enumeration
// became ascending-prefix order, and again when the campaign moved to
// per-session MRAI jitter streams and per-VP noise lanes).
constexpr std::uint64_t kExpectedTraceEvents = 437;
constexpr std::uint64_t kExpectedTraceDigest = 14625749043035056780ULL;

TEST(ObsGoldenTrace, InstrumentedCampaignMatchesSeedEngine) {
  ObsGuard guard;
  const experiment::CampaignResult result =
      experiment::run_campaign(golden_config());
  EXPECT_EQ(result.events_executed, kExpectedEvents);
  EXPECT_EQ(result.store.size(), kExpectedRecords);
  EXPECT_EQ(digest_store(result.store), kExpectedDigest);

  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  const std::string json = obs::render_chrome_trace(events);
  EXPECT_EQ(events.size(), kExpectedTraceEvents);
  EXPECT_EQ(fnv1a_bytes(json), kExpectedTraceDigest)
      << "trace JSON digest changed; events=" << events.size()
      << " digest=" << fnv1a_bytes(json);
}

TEST(ObsGoldenTrace, TraceExportReproducibleAcrossRuns) {
  std::string first;
  for (int round = 0; round < 2; ++round) {
    ObsGuard guard;
    experiment::run_campaign(golden_config());
    const std::string json = obs::render_chrome_trace(obs::trace_snapshot());
    if (round == 0)
      first = json;
    else
      EXPECT_EQ(json, first);
  }
}

TEST(ObsGoldenTrace, MetricsCoverEveryInstrumentedSubsystem) {
  ObsGuard guard;
  {
    // The result owns the collector's PathTable, whose dedup counters flush
    // at destruction — drop it before snapshotting.
    const experiment::CampaignResult result =
        experiment::run_campaign(golden_config());
  }
  const obs::MetricsSnapshot snap = obs::snapshot();
  auto value = [&snap](std::string_view name) -> std::uint64_t {
    for (const auto& row : snap.counters)
      if (row.name == name) return row.value;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  // Engine: every executed event was counted, by kind, and the queue-depth
  // histogram saw one sample per pop.
  EXPECT_EQ(value("campaign.events"), kExpectedEvents);
  EXPECT_GT(value("sim.events.bgp_delivery"), 0u);
  EXPECT_GT(value("sim.events.beacon"), 0u);
  EXPECT_GT(value("sim.schedules"), 0u);
  ASSERT_EQ(snap.histograms.size(), obs::kHistoCount);
  EXPECT_EQ(snap.histograms[0].total, kExpectedEvents);
  // BGP plane.
  EXPECT_GT(value("bgp.announcements_sent"), 0u);
  EXPECT_GT(value("bgp.updates_received"), 0u);
  EXPECT_GT(value("bgp.adj_rib_in.memo_hits"), 0u);
  EXPECT_GT(value("bgp.paths.dedup_hits"), 0u);
  EXPECT_EQ(value("campaign.cells"), 1u);
}

}  // namespace
}  // namespace because
