#include "service/posterior.hpp"

#include <unordered_set>

#include "core/multichain.hpp"
#include "util/contracts.hpp"

namespace because::service {

namespace {

/// The posterior's snapshot inputs: labeling::distinct_measurements over one
/// prefix's labeled paths, copied out in first-seen order.
std::vector<std::pair<topology::AsPath, bool>> dedup_inputs(
    const std::vector<labeling::LabeledPath>& labeled) {
  std::vector<std::pair<topology::AsPath, bool>> out;
  for (const labeling::LabeledPath* p :
       labeling::distinct_measurements(labeled))
    out.emplace_back(p->path, p->rfd);
  return out;
}

}  // namespace

void PrefixPosterior::rebuild_model(
    const std::unordered_set<topology::AsId>& exclude,
    const ServiceConfig& config) {
  BECAUSE_CHECK(chains_.empty(),
                "PrefixPosterior: rebuild_model with live chains (they would "
                "dangle off the old likelihood)");
  labeling::PathDataset fresh;
  for (const auto& [path, rfd] : inputs_) fresh.add_path(path, rfd, exclude);
  dataset_ = std::move(fresh);
  prior_ = std::make_unique<core::Prior>(core::Prior::beta(
      config.inference.prior_alpha, config.inference.prior_beta));
  if (dataset_.as_count() == 0) {
    likelihood_.reset();
    return;
  }
  likelihood_ =
      std::make_unique<core::Likelihood>(dataset_, config.inference.noise);
}

void PrefixPosterior::start_chains(
    const ServiceConfig& config, std::size_t n,
    const std::vector<core::HmcSamplerState>& states) {
  chains_ = core::make_hmc_chains(*likelihood_, *prior_, config.inference.hmc,
                                  n);
  for (std::size_t c = 0; c < states.size(); ++c)
    chains_[c].restore_state(states[c]);
}

void PrefixPosterior::advance_and_summarize(const ServiceConfig& config,
                                            std::size_t extra,
                                            std::size_t keep_after,
                                            util::ThreadPool* pool) {
  const core::ChainDraws draws =
      core::advance_hmc_chains(chains_, extra, keep_after, pool);
  summaries_ =
      core::summarize(draws.pooled, dataset_, config.inference.hdpi_mass);
  categories_ = core::categorize_all(summaries_, config.inference.cutoffs);
  for (core::HmcSampler& chain : chains_) chain.flush_obs();
}

void PrefixPosterior::build(const std::vector<labeling::LabeledPath>& labeled,
                            const std::unordered_set<topology::AsId>& exclude,
                            const ServiceConfig& config,
                            std::uint64_t target_epoch,
                            std::uint64_t config_epoch,
                            util::ThreadPool* pool) {
  inputs_ = dedup_inputs(labeled);
  chains_.clear();
  rebuild_model(exclude, config);
  if (dataset_.as_count() == 0) {
    summaries_.clear();
    categories_.clear();
  } else {
    const core::HmcConfig& hmc = config.inference.hmc;
    start_chains(config, config.pool_chains);
    advance_and_summarize(config, hmc.burn_in + hmc.samples, hmc.burn_in,
                          pool);
  }
  built_ = true;
  built_epoch_ = target_epoch;
  config_epoch_ = config_epoch;
}

void PrefixPosterior::refresh(
    const std::vector<labeling::LabeledPath>& labeled,
    const std::unordered_set<topology::AsId>& exclude,
    const ServiceConfig& config, std::uint64_t target_epoch,
    util::ThreadPool* pool) {
  BECAUSE_CHECK(built_, "PrefixPosterior: refresh before first build");
  if (chains_.empty()) {
    // The previous build saw an empty dataset (no warm chains to carry):
    // this refresh is a cold build under the same config epoch.
    build(labeled, exclude, config, target_epoch, config_epoch_, pool);
    return;
  }

  // The warm state to carry over: each chain's full mid-run state plus the
  // AS identity of every old coordinate (theta is indexed by the old
  // dataset's dense order, which the rebuild below invalidates).
  std::vector<topology::AsId> old_as(dataset_.as_count());
  for (std::size_t i = 0; i < old_as.size(); ++i) old_as[i] = dataset_.as_at(i);
  std::vector<core::HmcSamplerState> states = sampler_states();

  inputs_ = dedup_inputs(labeled);
  chains_.clear();
  rebuild_model(exclude, config);
  if (dataset_.as_count() == 0) {
    summaries_.clear();
    categories_.clear();
    built_epoch_ = target_epoch;
    return;
  }

  BECAUSE_CHECK(states.size() == config.pool_chains,
                "PrefixPosterior: pool size changed without a config commit ("
                    << states.size() << " warm chains, config wants "
                    << config.pool_chains << ")");
  // Remap each warm position by AS identity: a coordinate whose AS
  // survived keeps its theta; a newly observed AS starts at theta = 0
  // (p = 1/2, the posterior's natural "no opinion" point).
  for (core::HmcSamplerState& state : states) {
    std::vector<double> theta(dataset_.as_count(), 0.0);
    for (std::size_t i = 0; i < old_as.size(); ++i) {
      const auto idx = dataset_.index_of(old_as[i]);
      if (idx.has_value()) theta[*idx] = state.theta[i];
    }
    state.theta = std::move(theta);
  }
  start_chains(config, states.size(), states);
  advance_and_summarize(config, config.refresh_samples, 0, pool);
  built_epoch_ = target_epoch;
}

std::vector<core::HmcSamplerState> PrefixPosterior::sampler_states() {
  std::vector<core::HmcSamplerState> out;
  out.reserve(chains_.size());
  for (core::HmcSampler& chain : chains_) out.push_back(chain.save_state());
  return out;
}

void PrefixPosterior::restore(
    std::vector<std::pair<topology::AsPath, bool>> inputs,
    const std::unordered_set<topology::AsId>& exclude,
    std::vector<core::HmcSamplerState> states,
    std::vector<core::MarginalSummary> summaries,
    std::vector<core::Category> categories, const ServiceConfig& config,
    std::uint64_t built_epoch, std::uint64_t config_epoch,
    std::uint64_t last_used) {
  inputs_ = std::move(inputs);
  chains_.clear();
  rebuild_model(exclude, config);
  BECAUSE_CHECK(states.empty() || dataset_.as_count() > 0,
                "PrefixPosterior: snapshot carries warm chains but its "
                "inputs rebuild an empty dataset");
  if (!states.empty()) start_chains(config, states.size(), states);
  summaries_ = std::move(summaries);
  categories_ = std::move(categories);
  built_ = true;
  built_epoch_ = built_epoch;
  config_epoch_ = config_epoch;
  last_used_ = last_used;
}

}  // namespace because::service
