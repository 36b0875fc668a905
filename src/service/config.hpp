// becaused service configuration.
//
// Config-vs-state separation (the ops-quagga BGP_DESIGN discipline): a
// ServiceConfig holds only declarative intent — how to label, how to
// sample, how many warm chains to keep — and none of the derived state the
// daemon computes from it (datasets, likelihoods, sampler positions,
// cached posteriors). The daemon applies a config transactionally: stage ->
// validate -> commit, where commit bumps the daemon's config epoch and
// every cached posterior built under an older epoch lazily rebuilds on its
// next query. A config object is therefore freely copyable and comparable
// and never owns resources.
#pragma once

#include <cstddef>

#include "experiment/pipeline.hpp"
#include "labeling/signature.hpp"

namespace because::service {

struct ServiceConfig {
  /// Posterior machinery: priors, noise model, HMC settings, HDPI mass,
  /// category cut-offs. The warm pools are HMC-only and do not pinpoint, so
  /// the offline pipeline's other settings are not served; assigning an
  /// experiment::InferenceConfig keeps its posterior half.
  experiment::PosteriorConfig inference;

  /// RFD signature labeling applied to each prefix's update stream.
  labeling::SignatureConfig signature;

  /// Warm chains kept per hot prefix. Chain c is seeded
  /// inference.hmc.seed + c; chains run in parallel on the daemon's pool
  /// and are always joined in chain-index order, so answers are
  /// byte-identical at any pool size.
  std::size_t pool_chains = 4;

  /// Trajectories each warm chain advances when a query finds its cached
  /// posterior stale (the prefix's freshness epoch moved past the cache's
  /// built epoch). The refreshed summary is computed over these
  /// pool_chains * refresh_samples fresh draws.
  std::size_t refresh_samples = 64;

  /// Soft cap on cached prefix entries. When a query would create an entry
  /// beyond the cap, the least-recently-queried idle entry is evicted
  /// (recency is a query sequence number, never wallclock). Entries busy
  /// under another query's lease are never evicted, so the cap can be
  /// transiently exceeded under concurrent load.
  std::size_t hot_prefix_capacity = 64;

  /// Throws std::invalid_argument on an unusable configuration; commit()
  /// refuses configs that do not pass.
  void validate() const;

  /// Small, fast settings for unit tests and benches.
  static ServiceConfig fast();
};

}  // namespace because::service
