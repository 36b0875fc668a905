// Metropolis-Hastings sampler for the BeCAUSe posterior (§3.2).
//
// Component-wise random-walk Metropolis with reflection at the [0,1]
// boundary (a symmetric proposal, so the Hastings correction cancels in
// Eq. 7). A full sweep updates every coordinate once; per-coordinate
// likelihood deltas are computed incrementally from cached products, so a
// sweep costs O(total path length) instead of O(paths * dimension).
// Observations with the same (ordered row, label) share one cached product
// and log term: a proposal for coordinate i takes one log per distinct row
// containing i (the old state's logs are cached) and one addition per
// observation containing i, in observation order, so the draws are those
// of a per-observation sweep bit for bit.
#pragma once

#include <cstdint>

#include "core/chain.hpp"
#include "core/likelihood.hpp"
#include "core/prior.hpp"
#include "stats/rng.hpp"

namespace because::core {

struct MetropolisConfig {
  std::size_t samples = 2000;    ///< kept samples
  std::size_t burn_in = 1000;    ///< discarded initial sweeps
  std::size_t thin = 2;          ///< sweeps per kept sample
  double proposal_sigma = 0.15;  ///< random-walk standard deviation
  std::uint64_t seed = 1;

  void validate() const;
};

/// Run the sampler; the initial state is drawn from the prior.
Chain run_metropolis(const Likelihood& likelihood, const Prior& prior,
                     const MetropolisConfig& config);

namespace detail {
/// Reflect a random-walk proposal back into [0,1]. Non-finite input (NaN or
/// infinite — possible only from pathological states) maps to NaN so the
/// sweep rejects the proposal instead of looping forever.
double reflect_into_unit(double x);
}  // namespace detail

}  // namespace because::core
