#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "experiment/campaign.hpp"
#include "service/daemon.hpp"
#include "service/snapshot.hpp"
#include "util/contracts.hpp"

namespace because::service {
namespace {

using because::util::ContractMode;
using because::util::ContractViolation;
using because::util::ScopedContractMode;

const experiment::CampaignResult& shared_campaign() {
  static const experiment::CampaignResult result = [] {
    experiment::CampaignConfig config = experiment::CampaignConfig::small();
    config.seed = 777;
    return run_campaign(config);
  }();
  return result;
}

bgp::Prefix beacon_prefix(std::size_t index = 0) {
  return shared_campaign().beacons.at(index).prefix;
}

std::unique_ptr<Daemon> loaded_daemon() {
  auto daemon = std::make_unique<Daemon>(ServiceConfig::fast());
  daemon->load_campaign(shared_campaign());
  daemon->replay(shared_campaign().store);
  return daemon;
}

TEST(ServiceSnapshot, RoundTripIsByteIdentical) {
  auto daemon = loaded_daemon();
  (void)daemon->query(beacon_prefix(0));
  (void)daemon->query(beacon_prefix(1));

  const std::string first = daemon->save_snapshot();
  Daemon restored{ServiceConfig::fast()};
  restored.restore_snapshot(first);
  const std::string second = restored.save_snapshot();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second);

  // And again through the original daemon: saving is non-destructive.
  EXPECT_TRUE(daemon->save_snapshot() == first);
}

TEST(ServiceSnapshot, RestoredDaemonAnswersFromCache) {
  auto daemon = loaded_daemon();
  const QueryResult before = daemon->query(beacon_prefix());
  const std::string bytes = daemon->save_snapshot();

  Daemon restored{ServiceConfig::fast()};
  restored.restore_snapshot(bytes);
  EXPECT_EQ(restored.stats().snapshot_restores, 1u);
  // The posterior came back warm: same answer, zero MCMC.
  const QueryResult after = restored.query(beacon_prefix());
  EXPECT_EQ(after.source, QueryResult::Source::kCached);
  QueryResult a = before, b = after;
  a.source = b.source = QueryResult::Source::kCached;
  EXPECT_EQ(render(a), render(b));
  EXPECT_EQ(restored.stats().cold_builds, 0u);
}

TEST(ServiceSnapshot, RestoreThenResumeEqualsNeverStopped) {
  const std::size_t half = shared_campaign().store.size() / 2;

  // Daemon A runs straight through: half the stream, a query, the rest of
  // the stream, a refreshing query.
  Daemon a{ServiceConfig::fast()};
  a.load_campaign(shared_campaign());
  a.replay(shared_campaign().store, 0, half);
  (void)a.query(beacon_prefix());
  const std::string mid = a.save_snapshot();
  a.replay(shared_campaign().store, half);
  const std::string answer_a =
      render(a.query(beacon_prefix()));
  const std::string final_a = a.save_snapshot();

  // Daemon B is killed at the midpoint and restored from the snapshot, then
  // sees the identical remainder of the stream.
  Daemon b{ServiceConfig::fast()};
  b.restore_snapshot(mid);
  b.replay(shared_campaign().store, half);
  const std::string answer_b =
      render(b.query(beacon_prefix()));
  const std::string final_b = b.save_snapshot();

  EXPECT_EQ(answer_a, answer_b);
  EXPECT_TRUE(final_a == final_b);
}

TEST(ServiceSnapshot, FileRoundTrip) {
  auto daemon = loaded_daemon();
  (void)daemon->query(beacon_prefix());
  const std::string path =
      testing::TempDir() + "/becaused_roundtrip.snap";
  daemon->save_snapshot_file(path);

  Daemon restored{ServiceConfig::fast()};
  restored.restore_snapshot_file(path);
  EXPECT_TRUE(restored.save_snapshot() == daemon->save_snapshot());
  std::remove(path.c_str());
}

TEST(ServiceSnapshot, RejectsBadMagic) {
  ScopedContractMode guard(ContractMode::kThrow);
  auto daemon = loaded_daemon();
  std::string bytes = daemon->save_snapshot();
  bytes[0] = 'X';
  Daemon victim{ServiceConfig::fast()};
  EXPECT_THROW(victim.restore_snapshot(bytes), ContractViolation);
}

TEST(ServiceSnapshot, RejectsVersionMismatch) {
  ScopedContractMode guard(ContractMode::kThrow);
  auto daemon = loaded_daemon();
  std::string bytes = daemon->save_snapshot();
  // The u32 version follows the 8-byte magic, little-endian.
  bytes[kSnapshotMagic.size()] =
      static_cast<char>(kSnapshotVersion + 1);
  Daemon victim{ServiceConfig::fast()};
  EXPECT_THROW(victim.restore_snapshot(bytes), ContractViolation);
}

TEST(ServiceSnapshot, RejectsVersionOneSnapshots) {
  // Older config blocks carry fields the format no longer has: version 1
  // the HMC gradient shard count, version 2 the offline pipeline's MH,
  // HMC-switch and pinpointing settings. Reading either as version 3 would
  // shift every later config field, so the header check must refuse both.
  ScopedContractMode guard(ContractMode::kThrow);
  ASSERT_EQ(kSnapshotVersion, 3u);
  auto daemon = loaded_daemon();
  const std::string current = daemon->save_snapshot();
  for (const std::uint32_t version : {1u, 2u}) {
    std::string bytes = current;
    const std::size_t at = kSnapshotMagic.size();
    bytes[at] = static_cast<char>(version);
    bytes[at + 1] = bytes[at + 2] = bytes[at + 3] = 0;
    Daemon victim{ServiceConfig::fast()};
    EXPECT_THROW(victim.restore_snapshot(bytes), ContractViolation)
        << "version " << version;
  }
}

TEST(ServiceSnapshot, RejectsTruncation) {
  ScopedContractMode guard(ContractMode::kThrow);
  auto daemon = loaded_daemon();
  (void)daemon->query(beacon_prefix());
  const std::string bytes = daemon->save_snapshot();
  // Chop at several depths: header, config, mid-records, mid-posterior.
  for (const double fraction : {0.5, 0.9, 0.999}) {
    const std::size_t n =
        static_cast<std::size_t>(static_cast<double>(bytes.size()) * fraction);
    Daemon victim{ServiceConfig::fast()};
    EXPECT_THROW(victim.restore_snapshot(bytes.substr(0, n)),
                 ContractViolation)
        << "truncated to " << n << " of " << bytes.size() << " bytes";
  }
  Daemon victim{ServiceConfig::fast()};
  EXPECT_THROW(victim.restore_snapshot(bytes.substr(0, 4)),
               ContractViolation);
}

TEST(ServiceSnapshot, RejectsTrailingGarbage) {
  ScopedContractMode guard(ContractMode::kThrow);
  auto daemon = loaded_daemon();
  std::string bytes = daemon->save_snapshot();
  bytes.push_back('\0');
  Daemon victim{ServiceConfig::fast()};
  EXPECT_THROW(victim.restore_snapshot(bytes), ContractViolation);
}

TEST(ServiceSnapshot, ReaderBoundsCheckedCounts) {
  ScopedContractMode guard(ContractMode::kThrow);
  // A corrupted count field must fail the bounds check up front, not drive
  // a multi-gigabyte allocation.
  SnapshotWriter w;
  w.put_u64(static_cast<std::uint64_t>(-1));
  SnapshotReader r(w.bytes());
  EXPECT_THROW((void)r.get_count(8), ContractViolation);
}

TEST(ServiceSnapshot, SnapshotCarriesConfigAndStagedIsDropped) {
  auto daemon = loaded_daemon();
  ServiceConfig next = ServiceConfig::fast();
  next.inference.hmc.samples += 5;
  daemon->stage(next);
  daemon->commit();
  const std::string bytes = daemon->save_snapshot();

  ServiceConfig other = ServiceConfig::fast();
  other.hot_prefix_capacity = 3;
  Daemon restored{other};
  restored.stage(other);  // staged state must not survive a restore
  restored.restore_snapshot(bytes);
  EXPECT_FALSE(restored.has_staged());
  EXPECT_EQ(restored.config_epoch(), 1u);
  EXPECT_EQ(restored.config().inference.hmc.samples,
            ServiceConfig::fast().inference.hmc.samples + 5);
}

}  // namespace
}  // namespace because::service
