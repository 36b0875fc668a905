// The BeCAUSe inference pipeline (§5.1): labeled paths -> dataset ->
// MH + HMC posteriors -> summaries -> categories -> pinpointing.
#pragma once

#include <optional>
#include <unordered_set>
#include <vector>

#include "core/categorize.hpp"
#include "core/chain.hpp"
#include "core/hmc.hpp"
#include "core/metropolis.hpp"
#include "core/pinpoint.hpp"
#include "core/summary.hpp"
#include "labeling/dataset.hpp"
#include "labeling/signature.hpp"

namespace because::experiment {

/// The posterior half of the settings: prior, noise model, HMC, HDPI mass
/// and category cut-offs. This is all the becaused warm pools read
/// (service::ServiceConfig::inference).
struct PosteriorConfig {
  core::HmcConfig hmc;
  /// Beta prior parameters (1,1 = uniform).
  double prior_alpha = 1.0;
  double prior_beta = 1.0;
  /// Label-flip error model (§7.2); zero rates recover Eq. 4-5 exactly.
  core::NoiseModel noise;
  double hdpi_mass = 0.95;
  core::CategoryCutoffs cutoffs;
};

/// The offline pipeline's settings: the posterior half plus the MH chain,
/// the HMC switch and Eq. 8 pinpointing.
struct InferenceConfig : PosteriorConfig {
  core::MetropolisConfig mh;
  bool use_hmc = true;
  double pinpoint_threshold = 0.8;
  /// Noise guard for the pinpointing step; 0 = plain Eq. 8. When the noise
  /// model is enabled, 0.5 is a sensible value (an RFD path whose posterior
  /// damped-probability is below 50% is attributed to noise).
  double pinpoint_noise_guard = 0.0;

  /// A faster configuration for unit tests.
  static InferenceConfig fast();
};

struct InferenceResult {
  labeling::PathDataset dataset;
  std::optional<core::Chain> mh_chain;
  std::optional<core::Chain> hmc_chain;
  std::vector<core::MarginalSummary> mh_summaries;
  std::vector<core::MarginalSummary> hmc_summaries;
  /// Final categories after taking the highest MH/HMC flag and running the
  /// inconsistent-damper pinpointing step.
  std::vector<core::Category> categories;
  /// Categories before the pinpointing upgrade (step 1 only).
  std::vector<core::Category> base_categories;
  std::vector<topology::AsId> upgraded;

  /// ASs flagged RFD-enabled (category 4 or 5).
  std::unordered_set<topology::AsId> damping_ases() const;

  core::Category category_of(topology::AsId as) const;
};

/// Build the dataset from labeled paths (dropping `exclude`, typically the
/// beacon-site ASs which are known not to damp) and run the full pipeline.
InferenceResult run_inference(const std::vector<labeling::LabeledPath>& paths,
                              const std::unordered_set<topology::AsId>& exclude,
                              const InferenceConfig& config);

/// Same pipeline on a pre-built dataset (used by the ROV benchmark).
InferenceResult run_inference(labeling::PathDataset dataset,
                              const InferenceConfig& config);

}  // namespace because::experiment
