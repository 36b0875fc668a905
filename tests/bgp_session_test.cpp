#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bgp/session.hpp"
#include "sim/event_queue.hpp"

namespace because::bgp {
namespace {

using topology::Relation;

const Prefix kPrefix{1, 24};

topology::PathTable& table() {
  static topology::PathTable paths;
  return paths;
}

Update announce(sim::Time ts, const topology::AsPath& path = {1, 2}) {
  Update u;
  u.type = UpdateType::kAnnouncement;
  u.prefix = kPrefix;
  u.path = table().intern(path);
  u.beacon_timestamp = ts;
  return u;
}

Update withdraw() {
  Update u;
  u.type = UpdateType::kWithdrawal;
  u.prefix = kPrefix;
  return u;
}

struct Fixture {
  sim::EventQueue queue;
  std::vector<std::pair<sim::Time, Update>> sent;
  Session session{1, 2, Relation::kCustomer, sim::seconds(30), false,
                  [this](const Update& u) { sent.emplace_back(queue.now(), u); }};
};

TEST(Session, FirstAnnouncementImmediate) {
  Fixture f;
  f.session.submit(announce(100), f.queue);
  ASSERT_EQ(f.sent.size(), 1u);
  EXPECT_TRUE(f.session.advertised(kPrefix));
}

TEST(Session, MraiDelaysSecondAnnouncement) {
  Fixture f;
  f.queue.schedule_at(0, [&] { f.session.submit(announce(0), f.queue); });
  f.queue.schedule_at(sim::seconds(10),
                      [&] { f.session.submit(announce(10), f.queue); });
  f.queue.run();
  ASSERT_EQ(f.sent.size(), 2u);
  EXPECT_EQ(f.sent[0].first, 0);
  EXPECT_EQ(f.sent[1].first, sim::seconds(30));  // held until MRAI expiry
}

TEST(Session, PendingKeepsOnlyNewest) {
  Fixture f;
  f.queue.schedule_at(0, [&] { f.session.submit(announce(0), f.queue); });
  f.queue.schedule_at(sim::seconds(5),
                      [&] { f.session.submit(announce(5), f.queue); });
  f.queue.schedule_at(sim::seconds(10),
                      [&] { f.session.submit(announce(10), f.queue); });
  f.queue.run();
  ASSERT_EQ(f.sent.size(), 2u);
  EXPECT_EQ(f.sent[1].second.beacon_timestamp, 10);  // only the latest flushed
}

TEST(Session, WithdrawalBypassesMrai) {
  Fixture f;
  f.queue.schedule_at(0, [&] { f.session.submit(announce(0), f.queue); });
  f.queue.schedule_at(sim::seconds(5), [&] { f.session.submit(withdraw(), f.queue); });
  f.queue.run();
  ASSERT_EQ(f.sent.size(), 2u);
  EXPECT_EQ(f.sent[1].first, sim::seconds(5));
  EXPECT_TRUE(f.sent[1].second.is_withdrawal());
  EXPECT_FALSE(f.session.advertised(kPrefix));
}

TEST(Session, WithdrawalSupersedesPendingAnnouncement) {
  Fixture f;
  f.queue.schedule_at(0, [&] { f.session.submit(announce(0), f.queue); });
  f.queue.schedule_at(sim::seconds(5),
                      [&] { f.session.submit(announce(5), f.queue); });
  f.queue.schedule_at(sim::seconds(6), [&] { f.session.submit(withdraw(), f.queue); });
  f.queue.run();
  // A(0) immediate, W at 6s; the pending A(5) must never surface.
  ASSERT_EQ(f.sent.size(), 2u);
  EXPECT_TRUE(f.sent[1].second.is_withdrawal());
  for (const auto& [_, u] : f.sent) EXPECT_NE(u.beacon_timestamp, 5);
}

TEST(Session, DuplicateAnnouncementElided) {
  Fixture f;
  f.queue.schedule_at(0, [&] { f.session.submit(announce(0), f.queue); });
  f.queue.schedule_at(sim::minutes(5),
                      [&] { f.session.submit(announce(0), f.queue); });
  f.queue.run();
  EXPECT_EQ(f.sent.size(), 1u);
}

TEST(Session, NewTimestampIsNotDuplicate) {
  // Announcements differing only in the beacon timestamp are attribute
  // changes and must propagate.
  Fixture f;
  f.queue.schedule_at(0, [&] { f.session.submit(announce(0), f.queue); });
  f.queue.schedule_at(sim::minutes(5),
                      [&] { f.session.submit(announce(7), f.queue); });
  f.queue.run();
  EXPECT_EQ(f.sent.size(), 2u);
}

TEST(Session, WithdrawalWithoutAdvertisementElided) {
  Fixture f;
  f.session.submit(withdraw(), f.queue);
  EXPECT_TRUE(f.sent.empty());
}

TEST(Session, DoubleWithdrawalElided) {
  Fixture f;
  f.queue.schedule_at(0, [&] { f.session.submit(announce(0), f.queue); });
  f.queue.schedule_at(sim::seconds(1), [&] { f.session.submit(withdraw(), f.queue); });
  f.queue.schedule_at(sim::seconds(2), [&] { f.session.submit(withdraw(), f.queue); });
  f.queue.run();
  EXPECT_EQ(f.sent.size(), 2u);
}

TEST(Session, MraiAppliesToWithdrawalsWhenConfigured) {
  sim::EventQueue queue;
  std::vector<std::pair<sim::Time, Update>> sent;
  Session session{1, 2, Relation::kCustomer, sim::seconds(30), true,
                  [&](const Update& u) { sent.emplace_back(queue.now(), u); }};
  queue.schedule_at(0, [&] { session.submit(announce(0), queue); });
  queue.schedule_at(sim::seconds(5), [&] { session.submit(withdraw(), queue); });
  queue.run();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1].first, sim::seconds(30));
}

TEST(Session, FlushedPendingEqualToAdvertisedIsSkipped) {
  // A(ts=0) sent, then A(ts=1) goes pending, then A(ts=0)... the pending
  // slot ends holding A(ts=0), equal to what was already delivered.
  Fixture f;
  f.queue.schedule_at(0, [&] { f.session.submit(announce(0), f.queue); });
  f.queue.schedule_at(sim::seconds(5),
                      [&] { f.session.submit(announce(1), f.queue); });
  f.queue.schedule_at(sim::seconds(6),
                      [&] { f.session.submit(announce(0), f.queue); });
  f.queue.run();
  EXPECT_EQ(f.sent.size(), 1u);
}

TEST(Session, ResetForgetsAdvertisedState) {
  Fixture f;
  f.queue.schedule_at(0, [&] { f.session.submit(announce(0), f.queue); });
  f.queue.run();
  ASSERT_EQ(f.sent.size(), 1u);
  f.session.reset();
  EXPECT_FALSE(f.session.advertised(kPrefix));
  f.queue.schedule_at(sim::minutes(10),
                      [&] { f.session.submit(announce(0), f.queue); });
  f.queue.run();
  EXPECT_EQ(f.sent.size(), 2u);  // re-sent despite identical content
}

TEST(Session, UpdatesSentCounter) {
  Fixture f;
  f.session.submit(announce(0), f.queue);
  f.session.submit(withdraw(), f.queue);
  EXPECT_EQ(f.session.updates_sent(), 2u);
}

TEST(Session, RejectsBadConstruction) {
  sim::EventQueue queue;
  EXPECT_THROW(Session(1, 2, Relation::kPeer, sim::seconds(30), false, nullptr),
               std::invalid_argument);
  EXPECT_THROW(Session(1, 2, Relation::kPeer, -1, false, [](const Update&) {}),
               std::invalid_argument);
}

TEST(Session, AccessorsReflectConstruction) {
  Fixture f;
  EXPECT_EQ(f.session.remote(), 2u);
  EXPECT_EQ(f.session.relation(), Relation::kCustomer);
}

TEST(Session, JitteredMraiStaysWithinBounds) {
  sim::EventQueue queue;
  std::vector<sim::Time> sent_at;
  Session session{1, 2, Relation::kCustomer, sim::seconds(30), false,
                  [&](const Update&) { sent_at.push_back(queue.now()); },
                  0.5, /*jitter_key=*/11};
  // A fresh announcement every second; MRAI coalesces them into windows of
  // 15-30 s.
  for (int i = 0; i < 120; ++i) {
    queue.schedule_at(sim::seconds(i), [&session, &queue, i] {
      Update u;
      u.type = UpdateType::kAnnouncement;
      u.prefix = kPrefix;
      u.path = table().intern(topology::AsPath{1, 2});
      u.beacon_timestamp = sim::seconds(i);
      session.submit(u, queue);
    });
  }
  queue.run();
  ASSERT_GE(sent_at.size(), 3u);
  for (std::size_t k = 1; k < sent_at.size(); ++k) {
    const sim::Duration gap = sent_at[k] - sent_at[k - 1];
    EXPECT_GE(gap, sim::seconds(15) - sim::seconds(1));
    EXPECT_LE(gap, sim::seconds(30) + sim::seconds(1));
  }
}

TEST(Session, JitterVariesAcrossWindows) {
  sim::EventQueue queue;
  std::vector<sim::Time> sent_at;
  Session session{1, 2, Relation::kCustomer, sim::seconds(30), false,
                  [&](const Update&) { sent_at.push_back(queue.now()); },
                  0.5, /*jitter_key=*/13};
  for (int i = 0; i < 600; ++i) {
    queue.schedule_at(sim::seconds(i), [&session, &queue, i] {
      Update u;
      u.type = UpdateType::kAnnouncement;
      u.prefix = kPrefix;
      u.path = table().intern(topology::AsPath{1, 2});
      u.beacon_timestamp = sim::seconds(i);
      session.submit(u, queue);
    });
  }
  queue.run();
  ASSERT_GE(sent_at.size(), 6u);
  std::set<sim::Duration> gaps;
  for (std::size_t k = 1; k < sent_at.size(); ++k)
    gaps.insert(sent_at[k] - sent_at[k - 1]);
  EXPECT_GT(gaps.size(), 2u);  // windows actually vary
}

TEST(Session, RejectsBadJitter) {
  EXPECT_THROW(Session(1, 2, Relation::kPeer, sim::seconds(30), false,
                       [](const Update&) {}, 1.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace because::bgp
