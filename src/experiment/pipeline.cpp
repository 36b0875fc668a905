#include "experiment/pipeline.hpp"

#include <stdexcept>

#include "core/likelihood.hpp"
#include "core/prior.hpp"

namespace because::experiment {

InferenceConfig InferenceConfig::fast() {
  InferenceConfig c;
  c.mh.samples = 400;
  c.mh.burn_in = 200;
  c.mh.thin = 1;
  c.hmc.samples = 150;
  c.hmc.burn_in = 50;
  return c;
}

std::unordered_set<topology::AsId> InferenceResult::damping_ases() const {
  std::unordered_set<topology::AsId> out;
  for (std::size_t n = 0; n < categories.size(); ++n)
    if (core::is_damping(categories[n])) out.insert(dataset.as_at(n));
  return out;
}

core::Category InferenceResult::category_of(topology::AsId as) const {
  const auto node = dataset.index_of(as);
  if (!node.has_value())
    throw std::out_of_range("InferenceResult: AS not in dataset");
  return categories[*node];
}

InferenceResult run_inference(const std::vector<labeling::LabeledPath>& paths,
                              const std::unordered_set<topology::AsId>& exclude,
                              const InferenceConfig& config) {
  labeling::PathDataset dataset;
  for (const labeling::LabeledPath* p : labeling::distinct_measurements(paths))
    dataset.add_path(p->path, p->rfd, exclude);
  return run_inference(std::move(dataset), config);
}

InferenceResult run_inference(labeling::PathDataset dataset,
                              const InferenceConfig& config) {
  if (dataset.as_count() == 0)
    throw std::invalid_argument("run_inference: empty dataset");

  InferenceResult result;
  result.dataset = std::move(dataset);

  const core::Likelihood likelihood(result.dataset, config.noise);
  const core::Prior prior = core::Prior::beta(config.prior_alpha, config.prior_beta);

  result.mh_chain = core::run_metropolis(likelihood, prior, config.mh);
  result.mh_summaries =
      core::summarize(*result.mh_chain, result.dataset, config.hdpi_mass);
  std::vector<core::Category> categories =
      core::categorize_all(result.mh_summaries, config.cutoffs);

  if (config.use_hmc) {
    result.hmc_chain = core::run_hmc(likelihood, prior, config.hmc);
    result.hmc_summaries =
        core::summarize(*result.hmc_chain, result.dataset, config.hdpi_mass);
    categories = core::highest_all(
        categories, core::categorize_all(result.hmc_summaries, config.cutoffs));
  }

  result.base_categories = categories;
  core::PinpointResult pinpointed = core::pinpoint_inconsistent(
      *result.mh_chain, result.dataset, std::move(categories),
      config.pinpoint_threshold, config.pinpoint_noise_guard);
  result.categories = std::move(pinpointed.categories);
  result.upgraded = std::move(pinpointed.upgraded);
  return result;
}

}  // namespace because::experiment
