// SIMD kernel dispatch: bit-identity of every vector level against the
// scalar reference on randomized CSR datasets, multichain digest
// equivalence across dispatch levels, and dual-averaging HMC warmup.
//
// "Bit-identical" here is literal: comparisons use exact double equality
// (EXPECT_EQ), not EXPECT_NEAR. The kernels earn this by lane-mapping whole
// paths and reproducing the scalar association per lane — see
// core/kernels/kernels.hpp for the contract these tests pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/hmc.hpp"
#include "core/kernels/dispatch.hpp"
#include "core/likelihood.hpp"
#include "core/metropolis.hpp"
#include "core/multichain.hpp"
#include "core/prior.hpp"
#include "stats/rng.hpp"
#include "util/thread_pool.hpp"

namespace because::core {
namespace {

namespace kernels = because::core::kernels;

/// Restore the detected dispatch level when a test scope ends, so a failing
/// EXPECT cannot leak a forced level into later tests.
struct LevelGuard {
  LevelGuard() : saved(kernels::active_level()) {}
  ~LevelGuard() { kernels::force_level(saved); }
  kernels::Level saved;
};

std::vector<kernels::Level> supported_levels() {
  std::vector<kernels::Level> levels = {kernels::Level::kScalar};
  if (kernels::supported(kernels::Level::kAvx2))
    levels.push_back(kernels::Level::kAvx2);
  if (kernels::supported(kernels::Level::kAvx512))
    levels.push_back(kernels::Level::kAvx512);
  return levels;
}

labeling::PathDataset random_dataset(std::size_t ases, std::size_t paths,
                                     std::uint64_t seed) {
  stats::Rng rng(seed);
  labeling::PathDataset data;
  for (std::size_t j = 0; j < paths; ++j) {
    const std::size_t len = 1 + rng.index(6);
    topology::AsPath path;
    for (std::size_t k = 0; k < len; ++k)
      path.push_back(static_cast<topology::AsId>(100 + rng.index(ases)));
    data.add_path(path, rng.bernoulli(0.4));
  }
  return data;
}

std::vector<double> random_p(std::size_t dim, stats::Rng& rng) {
  std::vector<double> p(dim);
  for (double& x : p) x = rng.uniform();
  return p;
}

NoiseModel noisy() {
  NoiseModel noise;
  noise.false_signature = 0.06;
  noise.missed_signature = 0.09;
  return noise;
}

// ------------------------------------------------------------- dispatch

TEST(KernelDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(kernels::supported(kernels::Level::kScalar));
  LevelGuard guard;
  EXPECT_TRUE(kernels::force_level(kernels::Level::kScalar));
  EXPECT_EQ(kernels::active_level(), kernels::Level::kScalar);
}

TEST(KernelDispatch, ForceLevelRejectsUnsupported) {
  LevelGuard guard;
  for (kernels::Level level :
       {kernels::Level::kAvx2, kernels::Level::kAvx512}) {
    if (kernels::supported(level)) {
      EXPECT_TRUE(kernels::force_level(level));
      EXPECT_EQ(kernels::active_level(), level);
    } else {
      EXPECT_FALSE(kernels::force_level(level));
      EXPECT_NE(kernels::active_level(), level);
    }
  }
}

TEST(KernelDispatch, LevelNames) {
  EXPECT_STREQ(kernels::level_name(kernels::Level::kScalar), "scalar");
  EXPECT_STREQ(kernels::level_name(kernels::Level::kAvx2), "avx2");
  EXPECT_STREQ(kernels::level_name(kernels::Level::kAvx512), "avx512");
}

// --------------------------------------------- scalar/vector bit-identity

// Path counts straddle the lane-block boundaries (multiples of 4 and 8,
// one off either way, tiny datasets with no full block at all).
constexpr std::size_t kPathCounts[] = {0, 1, 3, 4, 5, 8, 17, 64, 127, 333};

TEST(KernelEquivalence, LogLikelihoodBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const NoiseModel& noise : {NoiseModel{}, noisy()}) {
      for (std::size_t paths : kPathCounts) {
        if (paths == 0) continue;  // Likelihood needs a non-empty dataset
        const auto data = random_dataset(40, paths, seed);
        const Likelihood lik(data, noise);
        stats::Rng rng(seed * 97 + paths);
        const auto p = random_p(lik.dim(), rng);
        ASSERT_TRUE(kernels::force_level(kernels::Level::kScalar));
        const double expected = lik.log_likelihood(p);
        for (kernels::Level level : supported_levels()) {
          ASSERT_TRUE(kernels::force_level(level));
          EXPECT_EQ(lik.log_likelihood(p), expected)
              << kernels::level_name(level) << " seed " << seed << " paths "
              << paths;
        }
      }
    }
  }
}

TEST(KernelEquivalence, GradientBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (std::uint64_t seed : {5u, 6u}) {
    for (const NoiseModel& noise : {NoiseModel{}, noisy()}) {
      for (std::size_t paths : kPathCounts) {
        if (paths == 0) continue;
        const auto data = random_dataset(40, paths, seed);
        const Likelihood lik(data, noise);
        stats::Rng rng(seed * 131 + paths);
        const auto p = random_p(lik.dim(), rng);
        ASSERT_TRUE(kernels::force_level(kernels::Level::kScalar));
        std::vector<double> expected(lik.dim());
        lik.gradient(p, expected);
        std::vector<double> got(lik.dim());
        for (kernels::Level level : supported_levels()) {
          ASSERT_TRUE(kernels::force_level(level));
          lik.gradient(p, got);
          for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], expected[i])
                << kernels::level_name(level) << " coordinate " << i
                << " seed " << seed << " paths " << paths;
        }
      }
    }
  }
}

TEST(KernelEquivalence, ProductsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (std::size_t paths : kPathCounts) {
    if (paths == 0) continue;
    const auto data = random_dataset(30, paths, 17);
    const Likelihood lik(data);
    stats::Rng rng(paths + 3);
    const auto p = random_p(lik.dim(), rng);
    ASSERT_TRUE(kernels::force_level(kernels::Level::kScalar));
    const auto expected = lik.products(p);
    for (kernels::Level level : supported_levels()) {
      ASSERT_TRUE(kernels::force_level(level));
      const auto got = lik.products(p);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], expected[j])
            << kernels::level_name(level) << " observation " << j << " paths "
            << paths;
    }
  }
}

// -------------------------------------- multichain digests across levels

/// Planted scenario shared with mcmc_test: AS 10 damps, 20/30/40 do not.
labeling::PathDataset planted_dataset(int copies) {
  labeling::PathDataset d;
  for (int i = 0; i < copies; ++i) {
    d.add_path({10, 20}, true);
    d.add_path({10, 30}, true);
    d.add_path({10, 20, 30}, true);
    d.add_path({20, 30}, false);
    d.add_path({30, 40}, false);
    d.add_path({20, 40}, false);
  }
  return d;
}

TEST(KernelEquivalence, MultichainDigestIdenticalAcrossLevels) {
  // The whole point of the bit-identity contract: a full multi-chain run
  // (chains on a pool, R-hat, pooled samples) produces the same digest at
  // every dispatch level and every pool size.
  LevelGuard guard;
  const auto data = planted_dataset(6);
  const Likelihood lik(data);
  const Prior prior = Prior::beta(1.0, 3.0);
  HmcConfig config;
  config.samples = 60;
  config.burn_in = 30;
  config.leapfrog_steps = 8;
  config.seed = 9;

  ASSERT_TRUE(kernels::force_level(kernels::Level::kScalar));
  util::ThreadPool pool1(1);
  const MultiChainResult expected =
      run_hmc_chains(lik, prior, config, 3, &pool1);

  for (kernels::Level level : supported_levels()) {
    ASSERT_TRUE(kernels::force_level(level));
    for (std::size_t pool_size : {1u, 4u}) {
      util::ThreadPool pool(pool_size);
      const MultiChainResult got =
          run_hmc_chains(lik, prior, config, 3, &pool);
      ASSERT_EQ(got.pooled.size(), expected.pooled.size())
          << kernels::level_name(level);
      for (std::size_t t = 0; t < got.pooled.size(); ++t) {
        const auto a = got.pooled.sample(t);
        const auto b = expected.pooled.sample(t);
        for (std::size_t i = 0; i < a.size(); ++i)
          EXPECT_EQ(a[i], b[i])
              << kernels::level_name(level) << " pool " << pool_size
              << " sample " << t << " coordinate " << i;
      }
      for (std::size_t i = 0; i < got.rhat.size(); ++i)
        EXPECT_EQ(got.rhat[i], expected.rhat[i])
            << kernels::level_name(level) << " pool " << pool_size;
    }
  }
}

TEST(KernelEquivalence, MetropolisDigestIdenticalAcrossLevels) {
  LevelGuard guard;
  const auto data = planted_dataset(6);
  const Likelihood lik(data);
  const Prior prior = Prior::beta(1.0, 3.0);
  MetropolisConfig config;
  config.samples = 150;
  config.burn_in = 50;
  config.seed = 13;

  ASSERT_TRUE(kernels::force_level(kernels::Level::kScalar));
  util::ThreadPool pool1(2);
  const MultiChainResult expected =
      run_metropolis_chains(lik, prior, config, 3, &pool1);

  for (kernels::Level level : supported_levels()) {
    ASSERT_TRUE(kernels::force_level(level));
    util::ThreadPool pool(4);
    const MultiChainResult got =
        run_metropolis_chains(lik, prior, config, 3, &pool);
    ASSERT_EQ(got.pooled.size(), expected.pooled.size());
    for (std::size_t t = 0; t < got.pooled.size(); ++t) {
      const auto a = got.pooled.sample(t);
      const auto b = expected.pooled.sample(t);
      for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << kernels::level_name(level) << " sample " << t;
    }
  }
}

std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t fnv1a_f64(std::uint64_t hash, double value) {
  return fnv1a_u64(hash, std::bit_cast<std::uint64_t>(value));
}

/// Fold a chain's draw count and every draw into `hash`.
std::uint64_t fnv1a_draws(std::uint64_t hash, const Chain& chain) {
  hash = fnv1a_u64(hash, chain.size());
  for (std::size_t t = 0; t < chain.size(); ++t)
    for (double v : chain.sample(t)) hash = fnv1a_f64(hash, v);
  return hash;
}

/// Every bit a multi-chain run hands back: each chain's draws and rates,
/// the pooled draws and the per-coordinate R-hat.
std::uint64_t multichain_digest(const MultiChainResult& result) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const Chain& chain : result.chains) {
    hash = fnv1a_draws(hash, chain);
    hash = fnv1a_f64(hash, chain.acceptance_rate);
    hash = fnv1a_f64(hash, chain.kept_acceptance_rate);
    hash = fnv1a_f64(hash, chain.adapted_step_size);
  }
  hash = fnv1a_draws(hash, result.pooled);
  for (double r : result.rhat) hash = fnv1a_f64(hash, r);
  return hash;
}

TEST(KernelEquivalence, MultichainRunsMatchPinnedDigests) {
  // Pinned against the implementation that ran each chain through its own
  // run_hmc / run_metropolis call: the shared multi-chain runner must hand
  // back the same draws, rates and R-hat bit for bit, at any pool size.
  constexpr std::uint64_t kHmcDigest = 3770543459025570531ULL;
  constexpr std::uint64_t kAdaptiveHmcDigest = 10282992179554898344ULL;
  constexpr std::uint64_t kMetropolisDigest = 5070033126092722270ULL;
  const auto data = planted_dataset(6);
  const Likelihood lik(data);
  const Prior prior = Prior::beta(1.0, 3.0);
  HmcConfig hmc;
  hmc.samples = 60;
  hmc.burn_in = 30;
  hmc.leapfrog_steps = 8;
  hmc.seed = 9;
  HmcConfig adaptive = hmc;
  adaptive.adapt_step_size = true;
  adaptive.step_size = 0.3;
  MetropolisConfig mh;
  mh.samples = 150;
  mh.burn_in = 50;
  mh.seed = 13;

  for (std::size_t pool_size : {1u, 4u}) {
    util::ThreadPool pool(pool_size);
    EXPECT_EQ(multichain_digest(run_hmc_chains(lik, prior, hmc, 3, &pool)),
              kHmcDigest)
        << "pool " << pool_size;
    EXPECT_EQ(
        multichain_digest(run_hmc_chains(lik, prior, adaptive, 2, &pool)),
        kAdaptiveHmcDigest)
        << "pool " << pool_size;
    EXPECT_EQ(
        multichain_digest(run_metropolis_chains(lik, prior, mh, 3, &pool)),
        kMetropolisDigest)
        << "pool " << pool_size;
  }
}

/// Repeated rows of every kind the Metropolis sweep groups: exact repeats,
/// one AS set in two orders (distinct products, so distinct groups) and one
/// row under both labels.
labeling::PathDataset repeated_rows_dataset() {
  labeling::PathDataset d;
  for (int i = 0; i < 4; ++i) {
    d.add_path({10, 20, 30}, true);
    d.add_path({30, 20, 10}, true);
    d.add_path({20, 40}, false);
    d.add_path({20, 40}, true);
    d.add_path({40, 50, 60}, false);
    if (i % 2 == 0) d.add_path({10, 60}, true);
  }
  d.add_path({50, 70}, false);
  return d;
}

/// One chain's draws and both acceptance rates.
std::uint64_t chain_digest(const Chain& chain) {
  std::uint64_t hash = fnv1a_draws(14695981039346656037ULL, chain);
  hash = fnv1a_f64(hash, chain.acceptance_rate);
  return fnv1a_f64(hash, chain.kept_acceptance_rate);
}

TEST(KernelEquivalence, MetropolisMatchesPinnedDigestOnRepeatedRows) {
  // Pinned against the sweep that evaluated two logs per observation per
  // proposal: grouping identical (ordered row, label) observations must
  // hand back the same draws and rates bit for bit, at every level.
  constexpr std::uint64_t kDigest = 3627909771328854005ULL;
  LevelGuard guard;
  const auto data = repeated_rows_dataset();
  NoiseModel noise;
  noise.false_signature = 0.05;
  noise.missed_signature = 0.05;
  const Likelihood lik(data, noise);
  const Prior prior = Prior::beta(1.0, 1.5);
  MetropolisConfig config;
  config.samples = 200;
  config.burn_in = 100;
  config.thin = 2;
  config.seed = 21;

  for (kernels::Level level : supported_levels()) {
    ASSERT_TRUE(kernels::force_level(level));
    EXPECT_EQ(chain_digest(run_metropolis(lik, prior, config)), kDigest)
        << kernels::level_name(level);
  }
}

// ------------------------------------------------------- dual averaging

TEST(DualAveraging, ReachesTargetAcceptance) {
  const auto data = planted_dataset(8);
  const Likelihood lik(data);
  const Prior prior = Prior::beta(1.0, 3.0);
  HmcConfig config;
  config.samples = 300;
  config.burn_in = 600;
  config.leapfrog_steps = 10;
  // Deliberately terrible starting step size: adaptation must rescue it.
  config.step_size = 0.5;
  config.adapt_step_size = true;
  config.seed = 3;

  const Chain chain = run_hmc(lik, prior, config);
  EXPECT_GT(chain.adapted_step_size, 0.0);
  EXPECT_NE(chain.adapted_step_size, config.step_size);
  // Mean acceptance over the whole run should bracket the 0.8 target.
  EXPECT_GE(chain.acceptance_rate, 0.7);
  EXPECT_LE(chain.acceptance_rate, 0.9);
  // And so should the post-warmup acceptance the frozen step delivers.
  EXPECT_GE(chain.kept_acceptance_rate, 0.7);
  EXPECT_LE(chain.kept_acceptance_rate, 0.9);
}

TEST(DualAveraging, FrozenStepSizeIsDeterministic) {
  const auto data = planted_dataset(5);
  const Likelihood lik(data);
  const Prior prior = Prior::beta(1.0, 3.0);
  HmcConfig config;
  config.samples = 40;
  config.burn_in = 60;
  config.adapt_step_size = true;
  config.seed = 11;

  const Chain a = run_hmc(lik, prior, config);
  const Chain b = run_hmc(lik, prior, config);
  EXPECT_EQ(a.adapted_step_size, b.adapted_step_size);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t)
    for (std::size_t i = 0; i < a.dim(); ++i)
      EXPECT_EQ(a.sample(t)[i], b.sample(t)[i]) << "sample " << t;
}

TEST(DualAveraging, OffByDefaultPreservesFixedStep) {
  const auto data = planted_dataset(5);
  const Likelihood lik(data);
  const Prior prior = Prior::beta(1.0, 3.0);
  HmcConfig config;
  config.samples = 20;
  config.burn_in = 10;
  config.seed = 7;
  EXPECT_FALSE(config.adapt_step_size);
  const Chain chain = run_hmc(lik, prior, config);
  EXPECT_EQ(chain.adapted_step_size, config.step_size);
}

TEST(DualAveraging, ValidatesTargetAccept) {
  HmcConfig config;
  config.adapt_step_size = true;
  config.target_accept = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.target_accept = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.target_accept = 0.8;
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace because::core
