// Multi-chain MCMC with convergence diagnostics.
//
// Runs several independent chains (different seeds, prior-dispersed starts)
// on the shared worker pool, then computes the split Gelman-Rubin R-hat per
// coordinate (also in parallel). Chains that disagree (R-hat >> 1) flag the
// multi-modal credit-assignment posteriors this problem produces (damper vs
// confounder explanations), exactly the situation where a single chain
// would silently mislead.
//
// Results are bit-identical for fixed inputs regardless of pool size: seeds
// are assigned by chain index, chains land in index order, and the per-
// coordinate R-hat partition does not change any coordinate's arithmetic.
// A chain that throws propagates its (first) exception to the caller after
// every submitted chain has finished — no worker is left running.
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

struct MultiChainResult {
  std::vector<Chain> chains;
  /// Split R-hat per coordinate (aligned with the dataset's dense index).
  std::vector<double> rhat;
  /// A chain pooling every chain's samples (for downstream summaries).
  Chain pooled;

  double max_rhat() const;
  /// True when every coordinate's R-hat is at most `threshold` (1.1 is the
  /// customary cut).
  bool converged(double threshold = 1.1) const;
};

/// Run `n_chains` Metropolis chains with seeds config.seed, config.seed+1,
/// ... on `pool` (the process-wide hardware-sized pool when null).
/// Deterministic for fixed inputs, independent of pool size.
MultiChainResult run_metropolis_chains(const Likelihood& likelihood,
                                       const Prior& prior,
                                       const MetropolisConfig& config,
                                       std::size_t n_chains = 4,
                                       util::ThreadPool* pool = nullptr);

/// Same runner for HMC chains (seeds config.seed, config.seed+1, ...).
MultiChainResult run_hmc_chains(const Likelihood& likelihood,
                                const Prior& prior, const HmcConfig& config,
                                std::size_t n_chains = 4,
                                util::ThreadPool* pool = nullptr);

}  // namespace because::core
