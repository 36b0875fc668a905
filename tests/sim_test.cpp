#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace because::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(seconds(1), 1000);
  EXPECT_EQ(minutes(1), 60'000);
  EXPECT_EQ(hours(1), 3'600'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(90)), 90.0);
  EXPECT_DOUBLE_EQ(to_minutes(minutes(7)), 7.0);
}

// Core engine contract. sim_property_test extends it to random workloads
// (against a (time, seq) heap model) and sim_golden_trace_test to whole
// campaigns.

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(1); });
  q.schedule_at(5, [&] { order.push_back(2); });
  q.schedule_at(5, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TypedAndClosureEventsInterleaveInOrder) {
  EventQueue q;
  std::vector<std::string> order;
  const EventQueue::EventFn record = [](EventQueue&, void* ctx, std::uint64_t a,
                                        std::uint64_t) {
    static_cast<std::vector<std::string>*>(ctx)->push_back("typed" +
                                                           std::to_string(a));
  };
  q.schedule_event_at(5, EventKind::kMraiTimer, record, &order, 1);
  q.schedule_at(5, [&] { order.push_back("closure"); });
  q.schedule_event_at(5, EventKind::kBgpDelivery, record, &order, 2);
  q.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"typed1", "closure", "typed2"}));
}

TEST(EventQueue, ClockAdvancesWithEvents) {
  EventQueue q;
  Time seen = -1;
  q.schedule_at(42, [&] { seen = q.now(); });
  q.run();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(q.now(), 42);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  Time seen = -1;
  q.schedule_at(100, [&] {
    q.schedule_in(50, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, 150);
}

// Regression: the engine used to throw on a `when` before now(), which made
// zero-delay timers racing the clock (e.g. an RFD reuse time just elapsed)
// abort whole campaigns. Past times now clamp to now(), keeping FIFO order
// among everything scheduled "immediately", and are counted for diagnostics.
TEST(EventQueue, PastSchedulingClampsToNow) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(100, [&] {
    q.schedule_at(50, [&] { order.push_back(1); });   // past: clamps to 100
    q.schedule_in(0, [&] { order.push_back(2); });    // also "now"
  });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 100);
  EXPECT_EQ(q.past_clamped(), 1u);
}

TEST(EventQueue, ReentrantSchedulingDuringRun) {
  EventQueue q;
  int count = 0;
  q.schedule_at(0, [&] {
    ++count;
    if (count < 5) q.schedule_in(10, [&] { ++count; });
  });
  // Chain of events each scheduling one more would need re-arming; here only
  // one extra is scheduled by the first event.
  q.run();
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesClockToDeadlineWhenIdle) {
  EventQueue q;
  q.run_until(500);
  EXPECT_EQ(q.now(), 500);
}

TEST(EventQueue, RunUntilPreservesTieOrderAcrossCalls) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(20, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_until(10);  // deferred events keep their original sequence numbers
  q.schedule_at(20, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Regression: when run_until popped a past-deadline event (via the calendar's
// full-cycle fallback, which jumps the cursor to that event's window) and
// reinserted it, the cursor was left far in the future. An earlier event
// scheduled afterwards then landed in a bucket behind the cursor and executed
// *after* the far-future one, rewinding the clock. The cursor must rewind to
// now()'s window when run_until defers an event.
TEST(EventQueue, EarlierScheduleAfterRunUntilRunsFirst) {
  EventQueue q;
  std::vector<Time> fired;
  q.schedule_at(1'000'000, [&] { fired.push_back(q.now()); });
  EXPECT_EQ(q.run_until(1000), 0u);
  EXPECT_EQ(q.now(), 1000);
  q.schedule_at(2000, [&] { fired.push_back(q.now()); });
  q.run();
  // Strictly increasing fire times double as a clock-monotonicity check.
  EXPECT_EQ(fired, (std::vector<Time>{2000, 1'000'000}));
  EXPECT_EQ(q.now(), 1'000'000);
}

TEST(EventQueue, ExecutedCounterAccumulates) {
  EventQueue q;
  q.schedule_at(1, [] {});
  q.schedule_at(2, [] {});
  q.run();
  EXPECT_EQ(q.executed(), 2u);
  q.schedule_at(3, [] {});
  q.run();
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, ExecutedBreaksDownByKind) {
  EventQueue q;
  const EventQueue::EventFn noop = [](EventQueue&, void*, std::uint64_t,
                                      std::uint64_t) {};
  q.schedule_event_at(1, EventKind::kBgpDelivery, noop, nullptr);
  q.schedule_event_at(2, EventKind::kBgpDelivery, noop, nullptr);
  q.schedule_event_at(3, EventKind::kRfdReuse, noop, nullptr);
  q.schedule_at(4, [] {});
  q.run();
  EXPECT_EQ(q.executed_of(EventKind::kBgpDelivery), 2u);
  EXPECT_EQ(q.executed_of(EventKind::kRfdReuse), 1u);
  EXPECT_EQ(q.executed_of(EventKind::kClosure), 1u);
  EXPECT_EQ(q.executed_of(EventKind::kBeacon), 0u);
  EXPECT_EQ(q.executed(), 4u);
}

TEST(EventQueue, TypedEventsReceiveArguments) {
  EventQueue q;
  std::uint64_t got_a = 0, got_b = 0;
  struct Ctx {
    std::uint64_t* a;
    std::uint64_t* b;
  } ctx{&got_a, &got_b};
  q.schedule_event_in(5, EventKind::kBeacon,
                      [](EventQueue&, void* c, std::uint64_t a, std::uint64_t b) {
                        auto* out = static_cast<Ctx*>(c);
                        *out->a = a;
                        *out->b = b;
                      },
                      &ctx, 77, 99);
  q.run();
  EXPECT_EQ(got_a, 77u);
  EXPECT_EQ(got_b, 99u);
}

TEST(EventQueue, EmptyAndPending) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule_at(1, [] {});
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_TRUE(q.empty());
}

/// Widely spread event times force the calendar to cycle through all buckets
/// and fall back to direct-search; order must survive.
TEST(EventQueue, SparseFarApartEventsStayOrdered) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(hours(500), [&] { order.push_back(3); });
  q.schedule_at(1, [&] { order.push_back(1); });
  q.schedule_at(hours(2), [&] { order.push_back(2); });
  q.schedule_at(hours(5000), [&] { order.push_back(4); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), hours(5000));
}

}  // namespace
}  // namespace because::sim
