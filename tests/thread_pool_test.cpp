// ThreadPool semantics (results, exception propagation, shutdown), the
// fan_out join (index order, inline on a null pool, no task outliving a
// throw) and the pooled multi-chain determinism guarantees built on it:
// the same seed must give bit-identical results whether the work runs on a
// 1-thread or a 4-thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/hmc.hpp"
#include "core/likelihood.hpp"
#include "core/metropolis.hpp"
#include "core/multichain.hpp"
#include "core/prior.hpp"
#include "stats/rng.hpp"
#include "util/thread_pool.hpp"

namespace because {
namespace {

labeling::PathDataset small_dataset(std::size_t ases = 12,
                                    std::size_t paths = 60) {
  stats::Rng rng(17);
  labeling::PathDataset data;
  for (std::size_t j = 0; j < paths; ++j) {
    topology::AsPath path;
    const std::size_t len = 2 + rng.index(4);
    for (std::size_t k = 0; k < len; ++k)
      path.push_back(static_cast<topology::AsId>(1 + rng.index(ases)));
    data.add_path(path, rng.bernoulli(0.35));
  }
  return data;
}

bool chains_identical(const core::Chain& a, const core::Chain& b) {
  if (a.dim() != b.dim() || a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    const auto sa = a.sample(t);
    const auto sb = b.sample(t);
    for (std::size_t i = 0; i < a.dim(); ++i)
      if (sa[i] != sb[i]) return false;  // bit-identical, not approximate
  }
  return true;
}

TEST(ThreadPool, SubmitReturnsResults) {
  util::ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  util::ThreadPool pool(1);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker must survive a throwing task.
  auto good = pool.submit([] { return 7; });
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, RunsAllTasksOnSingleWorker) {
  util::ThreadPool pool(1);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&count] { ++count; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, HardwareThreadsHasFloorOfOne) {
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1u);
}

TEST(FanOut, ReturnsResultsInIndexOrder) {
  util::ThreadPool pool(4);
  const std::vector<std::size_t> squares =
      util::fan_out(&pool, 64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 64u);
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
  EXPECT_TRUE(util::fan_out(&pool, 0, [](std::size_t i) { return i; }).empty());
}

TEST(FanOut, NullPoolRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const std::vector<std::thread::id> ids =
      util::fan_out(nullptr, 5, [&order](std::size_t i) {
        order.push_back(i);
        return std::this_thread::get_id();
      });
  ASSERT_EQ(ids.size(), 5u);
  for (const std::thread::id id : ids) EXPECT_EQ(id, caller);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(FanOut, ThrowsOnlyAfterEveryTaskFinished) {
  // Task 0 opens the latch just before it throws, so the other tasks are
  // still running when its exception is captured; the call may surface it
  // only once they have all finished. Task 2 throws too, later in index
  // order, so task 0's exception is the one that must win.
  constexpr std::size_t kTasks = 4;
  util::ThreadPool pool(kTasks);
  std::latch thrown(1);
  std::atomic<std::size_t> finished{0};
  EXPECT_THROW(util::fan_out(&pool, kTasks,
                             [&](std::size_t i) {
                               if (i == 0) {
                                 thrown.count_down();
                                 throw std::runtime_error("task 0");
                               }
                               thrown.wait();
                               ++finished;
                               if (i == 2) throw std::logic_error("task 2");
                             }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), kTasks - 1);
}

TEST(FanOut, NullPoolRunsEveryTaskBeforeRethrowing) {
  std::size_t ran = 0;
  EXPECT_THROW(util::fan_out(nullptr, 3,
                             [&ran](std::size_t i) {
                               ++ran;
                               if (i == 0) throw std::runtime_error("task 0");
                               return i;
                             }),
               std::runtime_error);
  EXPECT_EQ(ran, 3u);
}

TEST(MultiChainPooled, MetropolisIdenticalAcrossPoolSizes) {
  const auto data = small_dataset();
  const core::Likelihood lik(data);
  const core::Prior prior = core::Prior::uniform();
  core::MetropolisConfig config;
  config.samples = 40;
  config.burn_in = 10;
  config.thin = 1;
  config.seed = 99;

  util::ThreadPool pool1(1), pool4(4);
  const auto r1 = core::run_metropolis_chains(lik, prior, config, 3, &pool1);
  const auto r4 = core::run_metropolis_chains(lik, prior, config, 3, &pool4);

  ASSERT_EQ(r1.chains.size(), 3u);
  ASSERT_EQ(r4.chains.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c)
    EXPECT_TRUE(chains_identical(r1.chains[c], r4.chains[c])) << "chain " << c;
  EXPECT_TRUE(chains_identical(r1.pooled, r4.pooled));
  ASSERT_EQ(r1.rhat.size(), r4.rhat.size());
  for (std::size_t i = 0; i < r1.rhat.size(); ++i)
    EXPECT_EQ(r1.rhat[i], r4.rhat[i]) << "coordinate " << i;
}

TEST(MultiChainPooled, HmcIdenticalAcrossPoolSizes) {
  const auto data = small_dataset();
  const core::Likelihood lik(data);
  const core::Prior prior = core::Prior::uniform();
  core::HmcConfig config;
  config.samples = 15;
  config.burn_in = 5;
  config.leapfrog_steps = 8;
  config.seed = 5;

  util::ThreadPool pool1(1), pool4(4);
  const auto r1 = core::run_hmc_chains(lik, prior, config, 2, &pool1);
  const auto r4 = core::run_hmc_chains(lik, prior, config, 2, &pool4);

  ASSERT_EQ(r1.chains.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c)
    EXPECT_TRUE(chains_identical(r1.chains[c], r4.chains[c])) << "chain " << c;
  EXPECT_TRUE(chains_identical(r1.pooled, r4.pooled));
}

TEST(MultiChainPooled, InvalidConfigThrowsInsteadOfTerminating) {
  const auto data = small_dataset();
  const core::Likelihood lik(data);
  const core::Prior prior = core::Prior::uniform();
  core::MetropolisConfig config;
  config.samples = 0;  // rejected inside the chain body
  EXPECT_THROW(core::run_metropolis_chains(lik, prior, config, 3),
               std::invalid_argument);
  EXPECT_THROW(core::run_metropolis_chains(lik, prior, config, 1),
               std::invalid_argument);  // n_chains < 2
}

TEST(MetropolisGuards, ReflectIntoUnitHandlesNonFiniteInput) {
  // A non-finite proposal must come back as NaN (so the sweep rejects it)
  // instead of spinning forever in the reflection loop.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(core::detail::reflect_into_unit(inf)));
  EXPECT_TRUE(std::isnan(core::detail::reflect_into_unit(-inf)));
  EXPECT_TRUE(std::isnan(core::detail::reflect_into_unit(nan)));
  // Finite values still reflect as before.
  EXPECT_DOUBLE_EQ(core::detail::reflect_into_unit(0.4), 0.4);
  EXPECT_DOUBLE_EQ(core::detail::reflect_into_unit(-0.25), 0.25);
  EXPECT_DOUBLE_EQ(core::detail::reflect_into_unit(1.3), 0.7);
  EXPECT_DOUBLE_EQ(core::detail::reflect_into_unit(0.0), 0.0);
  EXPECT_DOUBLE_EQ(core::detail::reflect_into_unit(1.0), 1.0);
  EXPECT_DOUBLE_EQ(core::detail::reflect_into_unit(-2.6), 0.6);
}

}  // namespace
}  // namespace because
