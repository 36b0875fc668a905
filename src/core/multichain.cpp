#include "core/multichain.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/kernels/dispatch.hpp"
#include "obs/metrics.hpp"
#include "stats/ess.hpp"
#include "stats/rhat.hpp"
#include "util/thread_pool.hpp"

namespace because::core {

double MultiChainResult::max_rhat() const {
  double out = 1.0;
  for (double r : rhat) out = std::max(out, r);
  return out;
}

bool MultiChainResult::converged(double threshold) const {
  return std::all_of(rhat.begin(), rhat.end(),
                     [threshold](double r) { return r <= threshold; });
}

namespace {

/// Refuse a one-chain R-hat run and resolve the pool argument.
util::ThreadPool& chain_pool(std::size_t n_chains, util::ThreadPool* pool) {
  if (n_chains < 2)
    throw std::invalid_argument("run multi-chain: need >= 2 chains");
  return pool != nullptr ? *pool : util::shared_pool();
}

ChainDraws pool_in_order(std::vector<Chain> chains) {
  Chain pooled(chains.front().dim());
  std::size_t total = 0;
  for (const Chain& chain : chains) total += chain.size();
  pooled.reserve(total);
  for (const Chain& chain : chains)
    for (std::size_t t = 0; t < chain.size(); ++t) pooled.push(chain.sample(t));
  return {std::move(chains), std::move(pooled)};
}

/// Per-coordinate split R-hat, partitioned over the pool, then the mcmc.*
/// gauges. Each coordinate is computed exactly as in a serial loop, so the
/// partition does not affect the values.
MultiChainResult diagnose(ChainDraws draws, util::ThreadPool& workers) {
  MultiChainResult result{std::move(draws), {}};
  const std::size_t n_chains = result.chains.size();
  const std::size_t dim = result.pooled.dim();
  result.rhat.resize(dim, 1.0);
  const std::size_t chunks = std::min(dim, workers.size());
  util::fan_out(&workers, chunks, [&result, n_chains, dim,
                                   chunks](std::size_t chunk) {
    std::vector<std::vector<double>> marginals;
    for (std::size_t i = dim * chunk / chunks; i < dim * (chunk + 1) / chunks;
         ++i) {
      marginals.clear();
      marginals.reserve(n_chains);
      for (const Chain& chain : result.chains)
        marginals.push_back(chain.marginal(i));
      result.rhat[i] = stats::gelman_rubin(marginals);
    }
  });

  if (obs::enabled()) {
    // Convergence snapshot for the whole run: the worst coordinate's R-hat
    // and its summed per-chain ESS. Computed here — after the join, on the
    // calling thread — so the values (and gauge writes) are independent of
    // pool size.
    obs::add(obs::Counter::kMcmcChains, n_chains);
    std::size_t worst = 0;
    for (std::size_t i = 1; i < dim; ++i)
      if (result.rhat[i] > result.rhat[worst]) worst = i;
    obs::set_gauge(obs::Gauge::kMcmcMaxRhat, result.max_rhat());
    double ess = 0.0;
    for (const Chain& chain : result.chains) {
      const std::vector<double> marginal = chain.marginal(worst);
      ess += stats::effective_sample_size(marginal);
    }
    obs::set_gauge(obs::Gauge::kMcmcWorstEss, ess);
    // The dispatch level is process-global and identical on every worker, so
    // recording it here (single-threaded) is trivially deterministic.
    obs::set_gauge(obs::Gauge::kSamplerKernelDispatch,
                   static_cast<double>(kernels::active_level()));
  }
  return result;
}

}  // namespace

std::vector<HmcSampler> make_hmc_chains(const Likelihood& likelihood,
                                        const Prior& prior,
                                        const HmcConfig& config,
                                        std::size_t n_chains) {
  std::vector<HmcSampler> samplers;
  samplers.reserve(n_chains);
  for (std::size_t c = 0; c < n_chains; ++c) {
    HmcConfig chain_config = config;
    chain_config.seed = config.seed + c;
    samplers.emplace_back(likelihood, prior, chain_config);
  }
  return samplers;
}

ChainDraws advance_hmc_chains(std::vector<HmcSampler>& samplers,
                              std::size_t trajectories, std::size_t keep_after,
                              util::ThreadPool* pool) {
  if (samplers.empty())
    throw std::invalid_argument("advance_hmc_chains: no chains");
  return pool_in_order(
      util::fan_out(pool, samplers.size(), [&](std::size_t c) {
        return samplers[c].draw(trajectories, keep_after);
      }));
}

MultiChainResult run_metropolis_chains(const Likelihood& likelihood,
                                       const Prior& prior,
                                       const MetropolisConfig& config,
                                       std::size_t n_chains,
                                       util::ThreadPool* pool) {
  util::ThreadPool& workers = chain_pool(n_chains, pool);
  return diagnose(
      pool_in_order(util::fan_out(&workers, n_chains, [&](std::size_t c) {
        MetropolisConfig chain_config = config;
        chain_config.seed = config.seed + c;
        return run_metropolis(likelihood, prior, chain_config);
      })),
      workers);
}

MultiChainResult run_hmc_chains(const Likelihood& likelihood,
                                const Prior& prior, const HmcConfig& config,
                                std::size_t n_chains, util::ThreadPool* pool) {
  util::ThreadPool& workers = chain_pool(n_chains, pool);
  std::vector<HmcSampler> samplers =
      make_hmc_chains(likelihood, prior, config, n_chains);
  MultiChainResult result =
      diagnose(advance_hmc_chains(samplers, config.burn_in + config.samples,
                                  config.burn_in, &workers),
               workers);
  for (HmcSampler& sampler : samplers) sampler.flush_obs();
  if (obs::enabled() && config.adapt_step_size)
    // Chain 0's frozen warmup step size, recorded after the join on the
    // calling thread — chains land in index order, so this is independent of
    // pool size.
    obs::set_gauge(obs::Gauge::kSamplerWarmupStepSize,
                   result.chains.front().adapted_step_size);
  return result;
}

}  // namespace because::core
