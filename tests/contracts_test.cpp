// Tests for the contract layer (src/util/contracts.hpp): the failure-mode
// machinery, the wired-in invariants firing on genuinely corrupted state, and
// the Release compile-out guarantee.
//
// Everything that exercises BECAUSE_ASSERT/BECAUSE_DCHECK is guarded by
// BECAUSE_CONTRACTS_ENABLED so this file also passes under the Release preset,
// where those macros compile to nothing; the compile-out test asserts exactly
// that in the #else branch.
#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "labeling/dataset.hpp"
#include "rfd/params.hpp"
#include "rfd/penalty.hpp"
#include "sim/event_queue.hpp"
#include "stats/rng.hpp"
#include "topology/paths.hpp"
#include "util/contracts.hpp"

namespace because::sim {

// Friend backdoor declared in event_queue.hpp: builds a raw calendar event
// that bypasses schedule_at's past-clamp, the only way to present the engine
// with the "timer fires in the past" state the pop contracts guard against.
struct EventQueueTestPeer {
  static void inject_raw(EventQueue& queue, Time when) {
    EventQueue::Event event;
    event.when = when;
    event.seq = queue.next_seq_++;
    event.fn = [](EventQueue&, void*, std::uint64_t, std::uint64_t) {};
    queue.cal_insert(event);
  }
};

}  // namespace because::sim

namespace {

using because::util::ContractMode;
using because::util::ContractViolation;
using because::util::ScopedContractMode;

TEST(ContractModeTest, ScopedModeSwapsAndRestores) {
  const ContractMode before = because::util::contract_mode();
  {
    ScopedContractMode guard(ContractMode::kThrow);
    EXPECT_EQ(because::util::contract_mode(), ContractMode::kThrow);
    {
      ScopedContractMode inner(ContractMode::kLogAndCount);
      EXPECT_EQ(because::util::contract_mode(), ContractMode::kLogAndCount);
    }
    EXPECT_EQ(because::util::contract_mode(), ContractMode::kThrow);
  }
  EXPECT_EQ(because::util::contract_mode(), before);
}

TEST(ContractModeTest, ThrowModeRaisesContractViolation) {
  ScopedContractMode guard(ContractMode::kThrow);
  EXPECT_THROW(BECAUSE_CHECK(1 == 2, "one is not " << 2), ContractViolation);
  EXPECT_NO_THROW(BECAUSE_CHECK(1 == 1));
}

TEST(ContractModeTest, ViolationMessageCarriesContext) {
  ScopedContractMode guard(ContractMode::kThrow);
  try {
    BECAUSE_CHECK(false, "detail " << 42);
    FAIL() << "BECAUSE_CHECK(false) did not throw";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("BECAUSE_CHECK"), std::string::npos) << what;
    EXPECT_NE(what.find("false"), std::string::npos) << what;
    EXPECT_NE(what.find("contracts_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("detail 42"), std::string::npos) << what;
  }
}

TEST(ContractModeTest, LogAndCountModeCountsAndContinues) {
  ScopedContractMode guard(ContractMode::kLogAndCount);
  because::util::reset_contract_violation_count();
  BECAUSE_CHECK(false, "first");
  BECAUSE_CHECK(false, "second");
  BECAUSE_CHECK(true, "not a violation");
  EXPECT_EQ(because::util::contract_violation_count(), 2u);
  because::util::reset_contract_violation_count();
  EXPECT_EQ(because::util::contract_violation_count(), 0u);
}

// BECAUSE_CHECK stays live in every configuration: a NaN success probability
// handed to the RNG must fail identically in Release and Debug.
TEST(WiredContractTest, BernoulliRejectsNanInAllConfigs) {
  ScopedContractMode guard(ContractMode::kThrow);
  because::stats::Rng rng(7);
  EXPECT_THROW(rng.bernoulli(std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  EXPECT_NO_THROW(rng.bernoulli(0.5));
}

#if BECAUSE_CONTRACTS_ENABLED

TEST(WiredContractTest, CalendarPopDetectsInjectedPastEvent) {
  ScopedContractMode guard(ContractMode::kThrow);
  because::sim::EventQueue queue;
  // Advance the clock past t=0 through the public API.
  queue.schedule_at(because::sim::seconds(10), [] {});
  EXPECT_EQ(queue.run(), 1u);
  EXPECT_EQ(queue.now(), because::sim::seconds(10));
  // A raw event in the past (impossible via schedule_*, which clamps) must
  // trip the pop-monotonicity contract when the engine reaches it.
  because::sim::EventQueueTestPeer::inject_raw(queue,
                                               because::sim::seconds(1));
  EXPECT_THROW(queue.run(), ContractViolation);
}

TEST(WiredContractTest, CalendarPopOrderingHoldsForLegalWorkloads) {
  ScopedContractMode guard(ContractMode::kThrow);
  because::sim::EventQueue queue;
  int fired = 0;
  for (int i = 9; i >= 0; --i)
    queue.schedule_at(because::sim::seconds(i), [&fired] { ++fired; });
  EXPECT_NO_THROW(queue.run());
  EXPECT_EQ(fired, 10);
}

TEST(WiredContractTest, DatasetRejectsOutOfRangeCsrRow) {
  ScopedContractMode guard(ContractMode::kThrow);
  because::labeling::PathDataset dataset;
  dataset.add_path(because::topology::AsPath{1, 2, 3}, true);
  dataset.add_path(because::topology::AsPath{2, 3, 4}, false);
  EXPECT_NO_THROW(dataset.path_nodes(1));
  EXPECT_THROW(dataset.path_nodes(dataset.path_count()), ContractViolation);
  EXPECT_THROW(dataset.shows_property(64), ContractViolation);
}

TEST(WiredContractTest, PenaltyApplyRejectsInvertedThresholds) {
  ScopedContractMode guard(ContractMode::kThrow);
  because::rfd::Params params = because::rfd::cisco_defaults();
  // Inconsistent per RFC 2439 (suppress must exceed reuse); such a preset is
  // rejected by Params::validate(), but apply() must also refuse to run the
  // state machine on it when handed the struct directly.
  params.suppress_threshold = 500.0;
  params.reuse_threshold = 750.0;
  because::rfd::PenaltyState state;
  EXPECT_THROW(state.apply(params, because::rfd::UpdateKind::kWithdrawal,
                           because::sim::seconds(1)),
               ContractViolation);
  EXPECT_NO_THROW(
      because::rfd::PenaltyState{}.apply(because::rfd::cisco_defaults(),
                                         because::rfd::UpdateKind::kWithdrawal,
                                         because::sim::seconds(1)));
}

TEST(CompiledOutTest, AssertEvaluatesConditionWhenEnabled) {
  int calls = 0;
  auto bump = [&calls] {
    ++calls;
    return true;
  };
  BECAUSE_ASSERT(bump(), "side effect must run exactly once");
  EXPECT_EQ(calls, 1);
  BECAUSE_DCHECK(bump());
  EXPECT_EQ(calls, 2);
}

#else  // Release

TEST(CompiledOutTest, AssertCompilesToNothingInRelease) {
  int calls = 0;
  auto bump = [&calls] {
    ++calls;
    return false;  // would be a violation if evaluated
  };
  BECAUSE_ASSERT(bump(), "never evaluated in Release");
  BECAUSE_DCHECK(bump(), "never evaluated in Release");
  EXPECT_EQ(calls, 0);
}

#endif  // BECAUSE_CONTRACTS_ENABLED

}  // namespace
