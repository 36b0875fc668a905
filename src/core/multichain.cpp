#include "core/multichain.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <future>
#include <optional>
#include <stdexcept>
#include <type_traits>

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

/// Wait on every future in order; the first captured exception is rethrown
/// only after all of them have finished, so no task outlives the call.
template <typename T, typename Sink>
void collect_all(std::vector<std::future<T>>& futures, Sink&& sink) {
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      if constexpr (std::is_void_v<T>) {
        futures[i].get();
      } else {
        T value = futures[i].get();
        if (!first_error) sink(i, std::move(value));
      }
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Shared driver: run `n_chains` tasks produced by `make_chain(c)` on the
/// pool, then diagnostics. Chain seeds are fixed by index, so the result is
/// independent of pool size.
MultiChainResult run_chains(
    const Likelihood& likelihood, std::size_t n_chains, util::ThreadPool* pool,
    const std::function<Chain(std::size_t)>& make_chain) {
  if (n_chains < 2)
    throw std::invalid_argument("run multi-chain: need >= 2 chains");
  util::ThreadPool& workers = pool != nullptr ? *pool : util::shared_pool();

  std::vector<std::future<Chain>> futures;
  futures.reserve(n_chains);
  for (std::size_t c = 0; c < n_chains; ++c)
    futures.push_back(workers.submit([&make_chain, c] { return make_chain(c); }));

  std::vector<std::optional<Chain>> slots(n_chains);
  collect_all<Chain>(futures, [&slots](std::size_t c, Chain&& chain) {
    slots[c].emplace(std::move(chain));
  });

  MultiChainResult result{{}, {}, Chain(likelihood.dim())};
  result.chains.reserve(n_chains);
  for (auto& slot : slots) result.chains.push_back(std::move(*slot));

  // Per-coordinate split R-hat, partitioned over the pool. Each coordinate
  // is computed exactly as in a serial loop, so the partition does not
  // affect the values.
  const std::size_t dim = likelihood.dim();
  result.rhat.resize(dim, 1.0);
  const std::size_t chunks = std::min(dim, workers.size());
  std::vector<std::future<void>> rhat_futures;
  rhat_futures.reserve(chunks);
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    const std::size_t begin = dim * chunk / chunks;
    const std::size_t end = dim * (chunk + 1) / chunks;
    rhat_futures.push_back(workers.submit([&result, n_chains, begin, end] {
      std::vector<std::vector<double>> marginals;
      for (std::size_t i = begin; i < end; ++i) {
        marginals.clear();
        marginals.reserve(n_chains);
        for (const Chain& chain : result.chains)
          marginals.push_back(chain.marginal(i));
        result.rhat[i] = stats::gelman_rubin(marginals);
      }
    }));
  }
  collect_all(rhat_futures, [](std::size_t) {});

  for (const Chain& chain : result.chains)
    for (std::size_t t = 0; t < chain.size(); ++t)
      result.pooled.push(chain.sample(t));

  if (obs::enabled()) {
    // Convergence snapshot for the whole run: the worst coordinate's R-hat
    // and its summed per-chain ESS. Computed here — after collect_all, on
    // the calling thread — so the values (and gauge writes) are independent
    // of pool size.
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

MultiChainResult run_metropolis_chains(const Likelihood& likelihood,
                                       const Prior& prior,
                                       const MetropolisConfig& config,
                                       std::size_t n_chains,
                                       util::ThreadPool* pool) {
  return run_chains(likelihood, n_chains, pool,
                    [&likelihood, &prior, &config](std::size_t c) {
                      MetropolisConfig chain_config = config;
                      chain_config.seed = config.seed + c;
                      return run_metropolis(likelihood, prior, chain_config);
                    });
}

MultiChainResult run_hmc_chains(const Likelihood& likelihood,
                                const Prior& prior, const HmcConfig& config,
                                std::size_t n_chains, util::ThreadPool* pool) {
  MultiChainResult result =
      run_chains(likelihood, n_chains, pool,
                 [&likelihood, &prior, &config](std::size_t c) {
                   HmcConfig chain_config = config;
                   chain_config.seed = config.seed + c;
                   return run_hmc(likelihood, prior, chain_config);
                 });
  if (obs::enabled() && config.adapt_step_size)
    // Chain 0's frozen warmup step size, recorded after collect_all on the
    // calling thread — chains land in index order, so this is independent of
    // pool size.
    obs::set_gauge(obs::Gauge::kSamplerWarmupStepSize,
                   result.chains.front().adapted_step_size);
  return result;
}

}  // namespace because::core
