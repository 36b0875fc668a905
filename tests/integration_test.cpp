// End-to-end tests: campaign -> labeling -> BeCAUSe inference -> evaluation
// against the simulator's ground truth, plus the ROV benchmark (§7).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/evaluate.hpp"
#include "core/kernels/dispatch.hpp"
#include "experiment/campaign.hpp"
#include "topology/generator.hpp"
#include "experiment/figures.hpp"
#include "experiment/pipeline.hpp"
#include "heuristics/combined.hpp"
#include "rov/rov.hpp"

namespace because {
namespace {

using experiment::CampaignConfig;
using experiment::CampaignResult;
using experiment::InferenceConfig;
using experiment::InferenceResult;

struct EndToEnd {
  CampaignResult campaign;
  InferenceResult inference;
};

const EndToEnd& shared_run() {
  static const EndToEnd run = [] {
    CampaignConfig config = CampaignConfig::small();
    config.seed = 99;
    config.pairs = 4;
    CampaignResult campaign = run_campaign(config);

    InferenceConfig inference_config = InferenceConfig::fast();
    inference_config.mh.samples = 800;
    inference_config.mh.burn_in = 400;
    InferenceResult inference =
        experiment::run_inference(campaign.labeled, campaign.site_set(),
                                  inference_config);
    return EndToEnd{std::move(campaign), std::move(inference)};
  }();
  return run;
}

TEST(EndToEnd, HighPrecisionAgainstGroundTruth) {
  const EndToEnd& run = shared_run();
  const auto eval = core::evaluate(run.inference.dataset,
                                   run.inference.categories,
                                   run.campaign.plan.dampers());
  // The paper reports 100% precision for BeCAUSe; the simulated setup must
  // stay close to that (no or almost no false positives).
  EXPECT_GE(eval.matrix.precision(), 0.9)
      << "false positives: " << eval.false_positives.size();
}

TEST(EndToEnd, ReasonableRecallOnDetectableDampers) {
  const EndToEnd& run = shared_run();
  // Restrict to detectable dampers that actually appear on measured paths.
  std::unordered_set<topology::AsId> scope;
  for (std::size_t n = 0; n < run.inference.dataset.as_count(); ++n)
    scope.insert(run.inference.dataset.as_at(n));
  const auto eval = core::evaluate(run.inference.dataset,
                                   run.inference.categories,
                                   run.campaign.plan.detectable_dampers(), scope);
  // The paper reports 87% recall; visibility issues make this scenario-
  // dependent, so assert a sane lower bound.
  EXPECT_GE(eval.matrix.recall(), 0.4);
}

TEST(EndToEnd, DampingShareIsPlausibleLowerBound) {
  const EndToEnd& run = shared_run();
  const double share = experiment::damping_share(run.inference.categories);
  // Deployment fraction is 12%; the measured lower bound must be positive
  // and cannot wildly exceed the planted fraction.
  EXPECT_GT(share, 0.0);
  EXPECT_LT(share, 0.35);
}

TEST(EndToEnd, HeuristicsRunOnCampaignData) {
  const EndToEnd& run = shared_run();
  std::vector<heuristics::Experiment> experiments;
  for (const auto& b : run.campaign.beacons)
    experiments.push_back(heuristics::Experiment{b.prefix, b.schedule});

  labeling::PathDataset dataset;
  for (const auto& p : run.campaign.labeled)
    dataset.add_path(p.path, p.rfd, run.campaign.site_set());

  const auto scores = heuristics::run_heuristics(
      dataset, run.campaign.labeled, run.campaign.observed, run.campaign.store,
      experiments);
  // The paper notes the heuristics "need tuning that is absent from the
  // Bayesian approach"; 0.7 is the tuned threshold for this scenario.
  const auto predicted = heuristics::heuristic_prediction(scores.combined, 0.7);
  const auto eval = core::evaluate_bool(dataset, predicted,
                                        run.campaign.plan.dampers());
  // Heuristics work but are less precise than BeCAUSe (Table 4's story).
  EXPECT_GT(eval.matrix.precision(), 0.5);
}

TEST(EndToEnd, CategoriesCoverFiveLevels) {
  const EndToEnd& run = shared_run();
  const auto counts = experiment::category_counts(run.inference.categories);
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  EXPECT_EQ(total, run.inference.dataset.as_count());
  // At least the confident-clean and damping buckets must be populated.
  EXPECT_GT(counts[0] + counts[1], 0u);
  EXPECT_GT(counts[3] + counts[4], 0u);
}

TEST(EndToEnd, RovBenchmarkHighPrecision) {
  // §7: build the ROV benchmark from every path the campaign observed
  // (the paper collected *all* AS paths of the two RPKI beacon prefixes).
  const EndToEnd& run = shared_run();
  std::vector<topology::AsPath> paths;
  for (const auto& p : run.campaign.observed) paths.push_back(p.path);
  ASSERT_FALSE(paths.empty());

  stats::Rng rng(7);
  auto rov_ases = rov::plant_rov_ases(paths, 0.9, 25, rng, 10);
  const auto bench = rov::make_rov_benchmark(paths, std::move(rov_ases));
  EXPECT_GE(bench.rov_path_share, 0.75);

  InferenceConfig config = InferenceConfig::fast();
  config.mh.samples = 800;
  config.mh.burn_in = 400;
  const auto result = experiment::run_inference(bench.dataset, config);

  const auto eval = core::evaluate(result.dataset, result.categories,
                                   bench.rov_ases);
  EXPECT_GE(eval.matrix.precision(), 0.9);
  // Recall is limited by ROV ASs hiding behind each other (the paper reports
  // 64%); just require that a meaningful share is found.
  EXPECT_GE(eval.matrix.recall(), 0.2);
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Every draw and both acceptance rates of one chain.
std::uint64_t chain_digest(const core::Chain& chain) {
  std::uint64_t hash = fnv1a(14695981039346656037ULL, chain.size());
  for (std::size_t t = 0; t < chain.size(); ++t)
    for (double v : chain.sample(t))
      hash = fnv1a(hash, std::bit_cast<std::uint64_t>(v));
  hash = fnv1a(hash, std::bit_cast<std::uint64_t>(chain.acceptance_rate));
  return fnv1a(hash, std::bit_cast<std::uint64_t>(chain.kept_acceptance_rate));
}

TEST(EndToEnd, RovInferenceMatchesPinnedDigests) {
  // The ROV benchmark over every observed path repeats rows many times over
  // (vantage points and beacon prefixes share paths). Pinned against the
  // Metropolis sweep that took two logs per observation per proposal, with
  // a scaled-down Table 4 noisy config, at every dispatch level.
  constexpr std::uint64_t kCategoriesDigest = 1246530080592876673ULL;
  constexpr std::uint64_t kMhDigest = 17854218806793178233ULL;
  constexpr std::uint64_t kHmcDigest = 17455133283152425692ULL;
  const EndToEnd& run = shared_run();
  std::vector<topology::AsPath> paths;
  for (const auto& p : run.campaign.observed) paths.push_back(p.path);
  stats::Rng rng(17);
  auto rov_ases = rov::plant_rov_ases(paths, 0.9, 25, rng, 10);
  const auto bench = rov::make_rov_benchmark(paths, std::move(rov_ases));

  InferenceConfig config;
  config.mh.samples = 300;
  config.mh.burn_in = 200;
  config.mh.thin = 2;
  config.hmc.samples = 60;
  config.hmc.burn_in = 20;
  config.hmc.leapfrog_steps = 30;
  config.prior_beta = 1.5;
  config.noise.false_signature = 0.05;
  config.noise.missed_signature = 0.05;
  config.pinpoint_noise_guard = 0.5;

  const core::kernels::Level saved = core::kernels::active_level();
  for (const core::kernels::Level level :
       {core::kernels::Level::kScalar, core::kernels::Level::kAvx2,
        core::kernels::Level::kAvx512}) {
    if (!core::kernels::force_level(level)) continue;
    const auto result = experiment::run_inference(bench.dataset, config);
    std::uint64_t categories = 14695981039346656037ULL;
    for (const core::Category c : result.categories)
      categories = fnv1a(categories, static_cast<std::uint64_t>(c));
    const char* name = core::kernels::level_name(level);
    EXPECT_EQ(categories, kCategoriesDigest) << name;
    EXPECT_EQ(chain_digest(*result.mh_chain), kMhDigest) << name;
    EXPECT_EQ(chain_digest(*result.hmc_chain), kHmcDigest) << name;
  }
  core::kernels::force_level(saved);
}

TEST(EndToEnd, MeasuredRovExperimentAgreesWithMembership) {
  const EndToEnd& run = shared_run();
  std::unordered_set<topology::AsId> rov;
  for (topology::AsId as : run.campaign.graph.as_ids()) {
    if (run.campaign.graph.tier(as) == topology::Tier::kTransit && rov.size() < 5)
      rov.insert(as);
  }
  rov::RovMeasurementConfig config;
  config.origins = 2;
  config.vantage_points = 15;
  const auto a = rov::run_rov_measurement(run.campaign.graph, rov, config);
  const auto b = rov::run_rov_measurement(run.campaign.graph, rov, config);
  // Deterministic and (near-)exact labels.
  EXPECT_EQ(a.paths_total, b.paths_total);
  EXPECT_EQ(a.label_disagreements, b.label_disagreements);
  EXPECT_LE(a.label_disagreements, a.paths_total / 10);
}

TEST(EndToEnd, InferenceDegradesGracefullyUnderHeavyLabelNoise) {
  // Flip 30% of the labels: precision should fall but the pipeline must
  // stay numerically healthy and keep the noise-explained accounting sane.
  const EndToEnd& run = shared_run();
  stats::Rng rng(123);
  auto noisy = run.campaign.labeled;
  for (auto& p : noisy)
    if (rng.bernoulli(0.3)) p.rfd = !p.rfd;

  InferenceConfig config = InferenceConfig::fast();
  config.noise.false_signature = 0.2;
  config.noise.missed_signature = 0.2;
  config.pinpoint_noise_guard = 0.5;
  const auto result =
      experiment::run_inference(noisy, run.campaign.site_set(), config);

  EXPECT_EQ(result.categories.size(), result.dataset.as_count());
  for (const auto& s : result.mh_summaries) {
    EXPECT_GE(s.mean, 0.0);
    EXPECT_LE(s.mean, 1.0);
    EXPECT_GE(s.hdpi.lo, 0.0);
    EXPECT_LE(s.hdpi.hi, 1.0);
  }
}

TEST(EndToEnd, SessionResetNoiseToleratedByNinetyPercentRule) {
  // Inject heavy aggregator loss; labeling should still produce RFD paths.
  CampaignConfig config = CampaignConfig::small();
  config.seed = 5;
  config.pairs = 4;
  config.missing_aggregator_prob = 0.05;
  const CampaignResult campaign = run_campaign(config);
  std::size_t rfd = 0;
  for (const auto& p : campaign.labeled)
    if (p.rfd) ++rfd;
  EXPECT_GT(rfd, 0u);
}

}  // namespace
}  // namespace because
