// The becaused determinism bar: a fixed ingestion schedule plus a fixed
// query script must produce byte-identical responses and snapshots at ANY
// thread-pool size (chains run in parallel but are seeded per index and
// merged in index order, so the worker count never leaks into the draws).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/campaign.hpp"
#include "service/daemon.hpp"
#include "util/thread_pool.hpp"

namespace because::service {
namespace {

const experiment::CampaignResult& shared_campaign() {
  static const experiment::CampaignResult result = [] {
    experiment::CampaignConfig config = experiment::CampaignConfig::small();
    config.seed = 31337;
    return run_campaign(config);
  }();
  return result;
}

struct ScriptResult {
  std::vector<std::string> responses;
  std::string snapshot;
};

/// The fixed script: load, replay half, query two prefixes (cold), replay
/// the rest, re-query (refresh), reconfigure, query again (cold rebuild),
/// then snapshot.
ScriptResult run_script(util::ThreadPool* pool) {
  ScriptResult out;
  Daemon daemon(ServiceConfig::fast(), pool);
  daemon.load_campaign(shared_campaign());
  const std::size_t half = shared_campaign().store.size() / 2;
  daemon.replay(shared_campaign().store, 0, half);

  const bgp::Prefix p0 = shared_campaign().beacons.at(0).prefix;
  const bgp::Prefix p1 = shared_campaign().beacons.at(1).prefix;
  out.responses.push_back(render(daemon.query(p0)));
  out.responses.push_back(render(daemon.query(p1)));

  daemon.replay(shared_campaign().store, half);
  out.responses.push_back(render(daemon.query(p0)));
  out.responses.push_back(render(daemon.query(p1)));

  ServiceConfig next = ServiceConfig::fast();
  next.refresh_samples += 4;
  daemon.stage(next);
  daemon.commit();
  out.responses.push_back(render(daemon.query(p0)));

  out.snapshot = daemon.save_snapshot();
  return out;
}

TEST(ServiceDeterminism, ByteIdenticalAcrossPoolSizes) {
  const ScriptResult serial = run_script(nullptr);
  ASSERT_EQ(serial.responses.size(), 5u);
  EXPECT_FALSE(serial.snapshot.empty());

  for (const std::size_t threads : {1u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    const ScriptResult pooled = run_script(&pool);
    ASSERT_EQ(pooled.responses.size(), serial.responses.size())
        << threads << " threads";
    for (std::size_t i = 0; i < serial.responses.size(); ++i)
      EXPECT_EQ(pooled.responses[i], serial.responses[i])
          << "response " << i << " at " << threads << " threads";
    EXPECT_TRUE(pooled.snapshot == serial.snapshot)
        << "snapshot diverged at " << threads << " threads";
  }
}

TEST(ServiceDeterminism, AnswersMatchPinnedDigest) {
  // Pinned against the implementation whose service drove its warm chains
  // through a private loop: the shared multi-chain runner must render the
  // same five answers byte for byte. The snapshot is left out on purpose —
  // its config block is a format detail, versioned separately.
  constexpr std::uint64_t kAnswersDigest = 2242124486414523490ULL;
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::string& response : run_script(nullptr).responses)
    for (const unsigned char c : response + '\n') {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  EXPECT_EQ(hash, kAnswersDigest);
}

TEST(ServiceDeterminism, RenderedSourcesFollowTheScript) {
  // Sanity on the script itself: cold, cold, refresh, refresh, cold.
  const ScriptResult r = run_script(nullptr);
  EXPECT_NE(r.responses[0].find("source cold"), std::string::npos);
  EXPECT_NE(r.responses[1].find("source cold"), std::string::npos);
  EXPECT_NE(r.responses[2].find("source refreshed"), std::string::npos);
  EXPECT_NE(r.responses[3].find("source refreshed"), std::string::npos);
  EXPECT_NE(r.responses[4].find("source cold"), std::string::npos);
}

}  // namespace
}  // namespace because::service
