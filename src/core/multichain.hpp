// Multi-chain MCMC with convergence diagnostics.
//
// advance_hmc_chains() is the one HMC multi-chain runner: run_hmc_chains
// and the becaused warm pool (service/posterior) both advance their
// samplers through it. run_*_chains then compute the split Gelman-Rubin
// R-hat per coordinate (also in parallel). Chains that disagree
// (R-hat >> 1) flag the multi-modal credit-assignment posteriors this
// problem produces (damper vs confounder explanations), exactly the
// situation where a single chain would silently mislead.
//
// Results are bit-identical for fixed inputs regardless of pool size: chain
// c is seeded config.seed + c, chains land in index order, and the per-
// coordinate R-hat partition does not change any coordinate's arithmetic.
// A chain that throws propagates its (first) exception to the caller after
// every chain has finished — no worker is left running.
#pragma once

#include <vector>

#include "core/chain.hpp"
#include "core/hmc.hpp"
#include "core/likelihood.hpp"
#include "core/metropolis.hpp"
#include "core/prior.hpp"

namespace because::util {
class ThreadPool;
}

namespace because::core {

/// Each chain's draws, and the same draws pooled in chain-index order.
struct ChainDraws {
  std::vector<Chain> chains;
  Chain pooled;
};

struct MultiChainResult : ChainDraws {
  /// Split R-hat per coordinate (aligned with the dataset's dense index).
  std::vector<double> rhat;

  double max_rhat() const;
  /// True when every coordinate's R-hat is at most `threshold` (1.1 is the
  /// customary cut).
  bool converged(double threshold = 1.1) const;
};

/// Fresh samplers for chains 0..n_chains-1, chain c seeded config.seed + c.
/// `likelihood` and `prior` must outlive them.
std::vector<HmcSampler> make_hmc_chains(const Likelihood& likelihood,
                                        const Prior& prior,
                                        const HmcConfig& config,
                                        std::size_t n_chains);

/// Advance every sampler `trajectories` trajectories (HmcSampler::draw) on
/// `pool`, or inline when it is null, keeping the draws after the first
/// `keep_after`. Accepts one or more chains and records no obs: callers
/// flush each sampler after the join.
ChainDraws advance_hmc_chains(std::vector<HmcSampler>& samplers,
                              std::size_t trajectories, std::size_t keep_after,
                              util::ThreadPool* pool);

/// Run `n_chains` (>= 2) Metropolis chains with seeds config.seed,
/// config.seed+1, ... on `pool` (the process-wide hardware-sized pool when
/// null). Deterministic for fixed inputs, independent of pool size.
MultiChainResult run_metropolis_chains(const Likelihood& likelihood,
                                       const Prior& prior,
                                       const MetropolisConfig& config,
                                       std::size_t n_chains = 4,
                                       util::ThreadPool* pool = nullptr);

/// Same for HMC: make_hmc_chains + advance_hmc_chains through warmup and
/// config.samples kept draws, then R-hat and the mcmc.* gauges.
MultiChainResult run_hmc_chains(const Likelihood& likelihood,
                                const Prior& prior, const HmcConfig& config,
                                std::size_t n_chains = 4,
                                util::ThreadPool* pool = nullptr);

}  // namespace because::core
