#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/campaign.hpp"
#include "service/daemon.hpp"
#include "util/thread_pool.hpp"

namespace because::service {
namespace {

/// One small campaign shared by all tests in this file (running it is the
/// expensive part; every daemon here replays its update stream).
const experiment::CampaignResult& shared_campaign() {
  static const experiment::CampaignResult result = [] {
    experiment::CampaignConfig config = experiment::CampaignConfig::small();
    config.seed = 4242;
    return run_campaign(config);
  }();
  return result;
}

ServiceConfig test_config() { return ServiceConfig::fast(); }

/// A daemon loaded with the shared campaign and its full update stream.
std::unique_ptr<Daemon> loaded_daemon(Clock* clock = nullptr) {
  auto daemon =
      std::make_unique<Daemon>(test_config(), /*pool=*/nullptr, clock);
  daemon->load_campaign(shared_campaign());
  daemon->replay(shared_campaign().store);
  return daemon;
}

bgp::Prefix beacon_prefix(std::size_t index = 0) {
  return shared_campaign().beacons.at(index).prefix;
}

/// A synthetic announcement for `prefix` stamped after every replayed
/// record, so per-VP time monotonicity holds.
StreamUpdate late_update(const bgp::Prefix& prefix) {
  const experiment::CampaignResult& c = shared_campaign();
  sim::Time last = 0;
  for (const collector::RecordedUpdate& r : c.store.all())
    if (r.recorded_at > last) last = r.recorded_at;
  StreamUpdate update;
  update.vp = 0;
  update.recorded_at = last + sim::minutes(1);
  update.type = bgp::UpdateType::kAnnouncement;
  update.prefix = prefix;
  update.beacon_timestamp = last;
  update.path = {c.store.vp(0).as, c.beacons.at(0).site};
  return update;
}

TEST(Service, ReplayIngestsEveryRecord) {
  Daemon daemon(test_config());
  daemon.load_campaign(shared_campaign());
  const std::size_t n = daemon.replay(shared_campaign().store);
  EXPECT_EQ(n, shared_campaign().store.size());
  EXPECT_EQ(daemon.stats().ingested, n);
  EXPECT_GT(n, 0u);
}

TEST(Service, ColdThenCachedQuery) {
  auto daemon = loaded_daemon();
  const bgp::Prefix prefix = beacon_prefix();

  const QueryResult cold = daemon->query(prefix);
  EXPECT_EQ(cold.source, QueryResult::Source::kCold);
  EXPECT_GT(cold.epoch, 0u);
  EXPECT_GT(cold.observations, 0u);
  EXPECT_EQ(cold.summaries.size(), cold.categories.size());

  const QueryResult cached = daemon->query(prefix);
  EXPECT_EQ(cached.source, QueryResult::Source::kCached);
  // Identical answer, byte for byte, modulo the source line.
  EXPECT_EQ(cached.summaries.size(), cold.summaries.size());
  for (std::size_t i = 0; i < cold.summaries.size(); ++i) {
    EXPECT_EQ(cached.summaries[i].as, cold.summaries[i].as);
    EXPECT_EQ(cached.summaries[i].mean, cold.summaries[i].mean);
  }
  EXPECT_EQ(cached.damping, cold.damping);

  const ServiceStats stats = daemon->stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cold_builds, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.refreshes, 0u);
}

TEST(Service, IngestBumpsEpochAndTriggersRefresh) {
  auto daemon = loaded_daemon();
  const bgp::Prefix prefix = beacon_prefix();

  const QueryResult cold = daemon->query(prefix);
  daemon->ingest(late_update(prefix));
  const QueryResult refreshed = daemon->query(prefix);
  EXPECT_EQ(refreshed.source, QueryResult::Source::kRefreshed);
  EXPECT_EQ(refreshed.epoch, cold.epoch + 1);

  const ServiceStats stats = daemon->stats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.cold_builds, 1u);
}

TEST(Service, SingleWarmChainAnswersColdAndRefreshed) {
  // pool_chains = 1: the multi-chain runner must accept one chain on both
  // rungs, and the answers must not depend on whether a pool is given.
  ServiceConfig config = test_config();
  config.pool_chains = 1;
  const bgp::Prefix prefix = beacon_prefix();
  util::ThreadPool pool(2);
  std::vector<std::string> rendered[2];
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    Daemon daemon(config, p);
    daemon.load_campaign(shared_campaign());
    daemon.replay(shared_campaign().store);
    const QueryResult cold = daemon.query(prefix);
    EXPECT_EQ(cold.source, QueryResult::Source::kCold);
    EXPECT_GT(cold.observations, 0u);
    EXPECT_FALSE(cold.summaries.empty());
    daemon.ingest(late_update(prefix));
    const QueryResult refreshed = daemon.query(prefix);
    EXPECT_EQ(refreshed.source, QueryResult::Source::kRefreshed);
    EXPECT_EQ(refreshed.summaries.size(), refreshed.categories.size());
    EXPECT_FALSE(refreshed.summaries.empty());
    rendered[p == nullptr ? 0 : 1] = {render(cold), render(refreshed)};
  }
  EXPECT_EQ(rendered[0], rendered[1]);
}

TEST(Service, CommitInvalidatesCacheViaConfigEpoch) {
  auto daemon = loaded_daemon();
  const bgp::Prefix prefix = beacon_prefix();
  (void)daemon->query(prefix);

  ServiceConfig next = test_config();
  next.inference.hmc.samples += 10;
  daemon->stage(next);
  EXPECT_TRUE(daemon->has_staged());
  EXPECT_EQ(daemon->validate_staged(), "");
  daemon->commit();
  EXPECT_FALSE(daemon->has_staged());
  EXPECT_EQ(daemon->config_epoch(), 1u);
  EXPECT_EQ(daemon->config().inference.hmc.samples,
            test_config().inference.hmc.samples + 10);

  // The posterior was built under config epoch 0: a post-commit query must
  // pay a full rebuild (warm chains are only carried within one epoch).
  const QueryResult result = daemon->query(prefix);
  EXPECT_EQ(result.source, QueryResult::Source::kCold);
  EXPECT_EQ(result.config_epoch, 1u);
  EXPECT_EQ(daemon->stats().cold_builds, 2u);
  EXPECT_EQ(daemon->stats().reconfig_commits, 1u);
}

TEST(Service, StagedConfigValidationAndAbort) {
  Daemon daemon(test_config());
  EXPECT_EQ(daemon.validate_staged(), "no staged config");

  ServiceConfig bad = test_config();
  bad.pool_chains = 0;
  daemon.stage(bad);
  EXPECT_NE(daemon.validate_staged(), "");

  daemon.abort_staged();
  EXPECT_FALSE(daemon.has_staged());
  EXPECT_EQ(daemon.config_epoch(), 0u);
}

TEST(Service, LruEvictionForcesRebuild) {
  ServiceConfig config = test_config();
  config.hot_prefix_capacity = 2;
  Daemon daemon(config);
  daemon.load_campaign(shared_campaign());
  daemon.replay(shared_campaign().store);

  (void)daemon.query(beacon_prefix(0));
  (void)daemon.query(beacon_prefix(1));
  (void)daemon.query(beacon_prefix(2));  // evicts prefix 0 (LRU)
  const QueryResult again = daemon.query(beacon_prefix(0));
  EXPECT_EQ(again.source, QueryResult::Source::kCold);
  EXPECT_EQ(daemon.stats().cold_builds, 4u);
}

TEST(Service, ShowPosteriorRendersDeterministically) {
  auto daemon = loaded_daemon();
  const bgp::Prefix prefix = beacon_prefix();
  const std::string first =
      daemon->show("show rfd posterior " + bgp::to_string(prefix));
  EXPECT_NE(first.find("prefix " + bgp::to_string(prefix)), std::string::npos);
  EXPECT_NE(first.find("source cold"), std::string::npos);
  const std::string second =
      daemon->show("show rfd posterior " + bgp::to_string(prefix));
  EXPECT_NE(second.find("source cached"), std::string::npos);
  // Everything but the source token is byte-identical.
  std::string a = first, b = second;
  a.replace(a.find("source cold"), 11, "source X");
  b.replace(b.find("source cached"), 13, "source X");
  EXPECT_EQ(a, b);
}

TEST(Service, ShowCampaignStatusAndStats) {
  FixedClock clock(1234567);
  auto daemon = loaded_daemon(&clock);
  const std::string status = daemon->show("show campaign status");
  EXPECT_NE(status.find("vantage-points"), std::string::npos);
  EXPECT_NE(status.find(bgp::to_string(beacon_prefix())), std::string::npos);

  const std::string stats = daemon->show("show service stats");
  EXPECT_NE(stats.find("config-epoch 0"), std::string::npos);
  EXPECT_NE(stats.find("wallclock-unix-ms 1234567"), std::string::npos);

  clock.advance(1000);
  const std::string later = daemon->show("show service stats");
  EXPECT_NE(later.find("wallclock-unix-ms 1235567"), std::string::npos);
}

TEST(Service, ShowRejectsUnknownCommandsAndBadPrefixes) {
  Daemon daemon(test_config());
  EXPECT_EQ(daemon.show("show me the money").substr(0, 1), "%");
  EXPECT_EQ(daemon.show("show rfd posterior pfx").substr(0, 1), "%");
  EXPECT_EQ(daemon.show("show rfd posterior 1/999").substr(0, 1), "%");
  EXPECT_EQ(daemon.show("clear rfd posterior 1").substr(0, 1), "%");
}

TEST(Service, QueryOnUnknownPrefixIsEmptyButWellFormed) {
  auto daemon = loaded_daemon();
  const bgp::Prefix unknown{987654, 24};
  const QueryResult result = daemon->query(unknown);
  EXPECT_EQ(result.source, QueryResult::Source::kCold);
  EXPECT_EQ(result.observations, 0u);
  EXPECT_TRUE(result.summaries.empty());
  EXPECT_TRUE(result.damping.empty());
  // And the render does not choke on the empty posterior.
  const std::string text = render(result);
  EXPECT_NE(text.find("damping: none"), std::string::npos);
}

TEST(ServiceConfigTest, ValidateRejectsBadKnobs) {
  EXPECT_NO_THROW(ServiceConfig::fast().validate());
  ServiceConfig c = ServiceConfig::fast();
  c.pool_chains = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ServiceConfig::fast();
  c.refresh_samples = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ServiceConfig::fast();
  c.hot_prefix_capacity = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ServiceConfig::fast();
  c.inference.prior_alpha = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace because::service
