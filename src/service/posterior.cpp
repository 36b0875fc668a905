#include "service/posterior.hpp"

#include <future>
#include <span>
#include <string>
#include <unordered_set>

#include "core/chain.hpp"
#include "labeling/path_key.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace because::service {

namespace {

/// Per-prefix analogue of run_inference's measurement dedup: an AS feeding
/// two collector projects exports the same stream twice, and counting it
/// twice would double-weight perfectly correlated evidence. The prefix is
/// fixed here, so the key is (label, path) only. Insertion order is kept —
/// it is the dataset's CSR order and part of the snapshot contract.
std::vector<std::pair<topology::AsPath, bool>> dedup_inputs(
    const std::vector<labeling::LabeledPath>& labeled) {
  std::unordered_set<std::string> seen;
  std::vector<std::pair<topology::AsPath, bool>> out;
  for (const labeling::LabeledPath& p : labeled) {
    std::string key =
        (p.rfd ? "1|" : "0|") + labeling::path_to_string(p.path);
    if (!seen.insert(std::move(key)).second) continue;
    out.emplace_back(p.path, p.rfd);
  }
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

void PrefixPosterior::advance_and_summarize(const ServiceConfig& config,
                                            std::size_t extra,
                                            std::size_t keep_after,
                                            util::ThreadPool* pool) {
  const std::size_t dim = dataset_.as_count();
  BECAUSE_CHECK(extra > keep_after,
                "PrefixPosterior: advance of " << extra
                                               << " keeps no draws");
  // Each chain collects into a private buffer; chain c's work depends only
  // on its own sampler state, so the buffers — merged below in chain-index
  // order — are byte-identical at any pool size.
  auto run_chain = [&](std::size_t c) {
    core::HmcSampler& sampler = *chains_[c];
    std::vector<double> draws;
    draws.reserve((extra - keep_after) * dim);
    for (std::size_t t = 0; t < extra; ++t) {
      sampler.iterate();
      if (t >= keep_after) {
        const std::span<const double> p = sampler.current_p();
        draws.insert(draws.end(), p.begin(), p.end());
      }
    }
    return draws;
  };

  std::vector<std::vector<double>> per_chain(chains_.size());
  if (pool != nullptr && chains_.size() > 1) {
    std::vector<std::future<std::vector<double>>> futures;
    futures.reserve(chains_.size());
    for (std::size_t c = 0; c < chains_.size(); ++c)
      futures.push_back(pool->submit([&run_chain, c] { return run_chain(c); }));
    for (std::size_t c = 0; c < chains_.size(); ++c)
      per_chain[c] = futures[c].get();
  } else {
    for (std::size_t c = 0; c < chains_.size(); ++c)
      per_chain[c] = run_chain(c);
  }

  core::Chain merged(dim);
  for (const std::vector<double>& draws : per_chain) {
    BECAUSE_CHECK(draws.size() % dim == 0,
                  "PrefixPosterior: ragged draw buffer");
    for (std::size_t off = 0; off < draws.size(); off += dim)
      merged.push({draws.data() + off, dim});
  }
  summaries_ =
      core::summarize(merged, dataset_, config.inference.hdpi_mass);
  categories_ = core::categorize_all(summaries_, config.inference.cutoffs);
  for (const auto& chain : chains_) chain->flush_obs();
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
    for (std::size_t c = 0; c < config.pool_chains; ++c) {
      core::HmcConfig chain_config = hmc;
      chain_config.seed = hmc.seed + c;
      chains_.push_back(std::make_unique<core::HmcSampler>(
          *likelihood_, *prior_, chain_config));
    }
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

  // The warm state to carry over: each chain's full mid-run state plus the
  // AS identity of every old coordinate (theta is indexed by the old
  // dataset's dense order, which the rebuild below invalidates).
  std::vector<topology::AsId> old_as(dataset_.as_count());
  for (std::size_t i = 0; i < old_as.size(); ++i) old_as[i] = dataset_.as_at(i);
  std::vector<core::HmcSamplerState> states;
  states.reserve(chains_.size());
  for (const auto& chain : chains_) states.push_back(chain->save_state());

  inputs_ = dedup_inputs(labeled);
  chains_.clear();
  rebuild_model(exclude, config);
  if (dataset_.as_count() == 0) {
    summaries_.clear();
    categories_.clear();
    built_epoch_ = target_epoch;
    return;
  }

  const core::HmcConfig& hmc = config.inference.hmc;
  if (states.empty()) {
    // The previous build saw an empty dataset (no warm chains to carry);
    // this refresh is a cold build in disguise.
    for (std::size_t c = 0; c < config.pool_chains; ++c) {
      core::HmcConfig chain_config = hmc;
      chain_config.seed = hmc.seed + c;
      chains_.push_back(std::make_unique<core::HmcSampler>(
          *likelihood_, *prior_, chain_config));
    }
    advance_and_summarize(config, hmc.burn_in + hmc.samples, hmc.burn_in,
                          pool);
    built_epoch_ = target_epoch;
    return;
  }

  BECAUSE_CHECK(states.size() == config.pool_chains,
                "PrefixPosterior: pool size changed without a config commit ("
                    << states.size() << " warm chains, config wants "
                    << config.pool_chains << ")");
  for (std::size_t c = 0; c < config.pool_chains; ++c) {
    core::HmcConfig chain_config = hmc;
    chain_config.seed = hmc.seed + c;
    auto sampler = std::make_unique<core::HmcSampler>(*likelihood_, *prior_,
                                                      chain_config);
    // Remap the warm position by AS identity: a coordinate whose AS
    // survived keeps its theta; a newly observed AS starts at theta = 0
    // (p = 1/2, the posterior's natural "no opinion" point).
    core::HmcSamplerState state = std::move(states[c]);
    std::vector<double> theta(dataset_.as_count(), 0.0);
    for (std::size_t i = 0; i < old_as.size(); ++i) {
      const auto idx = dataset_.index_of(old_as[i]);
      if (idx.has_value()) theta[*idx] = state.theta[i];
    }
    state.theta = std::move(theta);
    sampler->restore_state(state);
    chains_.push_back(std::move(sampler));
  }
  advance_and_summarize(config, config.refresh_samples, 0, pool);
  built_epoch_ = target_epoch;
}

std::vector<core::HmcSamplerState> PrefixPosterior::sampler_states() {
  std::vector<core::HmcSamplerState> out;
  out.reserve(chains_.size());
  for (const auto& chain : chains_) out.push_back(chain->save_state());
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
  const core::HmcConfig& hmc = config.inference.hmc;
  for (std::size_t c = 0; c < states.size(); ++c) {
    core::HmcConfig chain_config = hmc;
    chain_config.seed = hmc.seed + c;
    auto sampler = std::make_unique<core::HmcSampler>(*likelihood_, *prior_,
                                                      chain_config);
    sampler->restore_state(states[c]);
    chains_.push_back(std::move(sampler));
  }
  summaries_ = std::move(summaries);
  categories_ = std::move(categories);
  built_ = true;
  built_epoch_ = built_epoch;
  config_epoch_ = config_epoch;
  last_used_ = last_used;
}

}  // namespace because::service
