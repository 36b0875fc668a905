// One hot prefix's warm posterior state: the unit the becaused daemon
// caches, refreshes and snapshots.
//
// A PrefixPosterior owns the full derivation chain for one prefix:
//
//   deduped labeled paths -> PathDataset (CSR) -> Likelihood -> a pool of
//   N resumable HmcSamplers held at their post-warmup state -> cached
//   marginal summaries and Table-1 categories.
//
// Freshness is a pair of epochs: built_epoch (the prefix's ingestion epoch
// the dataset reflects) and config_epoch (the daemon's committed-config
// generation the sampler settings came from). A query whose target epochs
// match both answers from the caches without sampling at all; a stale
// dataset triggers a refresh (relabel, rebuild the CSR, carry the warm
// chains over by AS identity, advance refresh_samples trajectories on the
// frozen step size); a config-epoch mismatch or a first touch triggers a
// cold build (full warmup).
//
// Determinism: every build, refresh and restore creates its chains in
// start_chains (core::make_hmc_chains: chain c seeded hmc.seed + c) and
// samples through core::advance_hmc_chains, the runner run_hmc_chains also
// uses. Summaries come from its draws pooled in chain-index order, so they
// are byte-identical at any thread-pool size; obs counters are flushed on
// the calling thread after the join. Nothing here reads wallclock.
//
// Thread-safety: a PrefixPosterior is NOT self-locking. The daemon leases
// it to exactly one query at a time (the entry's busy flag, held under the
// daemon mutex, is the lease; see daemon.hpp) — the same protocol-guarded
// discipline as PathDataset's lazy caches.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/categorize.hpp"
#include "core/hmc.hpp"
#include "core/likelihood.hpp"
#include "core/prior.hpp"
#include "core/summary.hpp"
#include "labeling/dataset.hpp"
#include "labeling/signature.hpp"
#include "service/config.hpp"

namespace because::util {
class ThreadPool;
}

namespace because::service {

class PrefixPosterior {
 public:
  explicit PrefixPosterior(bgp::Prefix prefix) : prefix_(prefix) {}

  const bgp::Prefix& prefix() const { return prefix_; }

  /// True once a build or restore populated the caches.
  bool built() const { return built_; }
  std::uint64_t built_epoch() const { return built_epoch_; }
  std::uint64_t config_epoch() const { return config_epoch_; }

  /// Eviction recency: the daemon's query sequence number at last touch.
  std::uint64_t last_used() const { return last_used_; }
  void touch(std::uint64_t query_seq) { last_used_ = query_seq; }

  /// Cold build: dedup `labeled`, build the dataset, run every chain
  /// through full warmup, cache summaries/categories. Discards any
  /// previous warm state.
  void build(const std::vector<labeling::LabeledPath>& labeled,
             const std::unordered_set<topology::AsId>& exclude,
             const ServiceConfig& config, std::uint64_t target_epoch,
             std::uint64_t config_epoch, util::ThreadPool* pool);

  /// Incremental refresh: rebuild the dataset from the new labeling, carry
  /// each warm chain's position over by AS identity (coordinates for newly
  /// seen ASs start at theta = 0, i.e. p = 1/2), advance refresh_samples
  /// trajectories per chain on the frozen step size and recompute the
  /// caches from those draws. Requires built() and an unchanged config
  /// epoch (the daemon routes config changes to build()). A posterior whose
  /// last build had no chains (empty dataset) takes the cold-build path.
  void refresh(const std::vector<labeling::LabeledPath>& labeled,
               const std::unordered_set<topology::AsId>& exclude,
               const ServiceConfig& config, std::uint64_t target_epoch,
               util::ThreadPool* pool);

  /// Cached query answer, valid while built(). Summaries are in dense-node
  /// order of the dataset; categories parallel them.
  const std::vector<core::MarginalSummary>& summaries() const {
    return summaries_;
  }
  const std::vector<core::Category>& categories() const { return categories_; }
  std::size_t observations() const {
    return dataset_.as_count() == 0 ? 0 : dataset_.path_count();
  }
  const labeling::PathDataset& dataset() const { return dataset_; }

  /// Snapshot surface: the deduped pre-exclusion (path, label) inputs in
  /// dataset insertion order, and the warm chains' full mid-run states.
  /// Rebuilding a dataset by re-adding build_inputs() under the same
  /// exclude set reproduces the CSR byte-for-byte.
  const std::vector<std::pair<topology::AsPath, bool>>& build_inputs() const {
    return inputs_;
  }
  std::vector<core::HmcSamplerState> sampler_states();

  /// Restore from snapshot fields: rebuild dataset/likelihood from the
  /// inputs, recreate the warm chains and restore their states, install
  /// the cached summaries/categories verbatim.
  void restore(std::vector<std::pair<topology::AsPath, bool>> inputs,
               const std::unordered_set<topology::AsId>& exclude,
               std::vector<core::HmcSamplerState> states,
               std::vector<core::MarginalSummary> summaries,
               std::vector<core::Category> categories,
               const ServiceConfig& config, std::uint64_t built_epoch,
               std::uint64_t config_epoch, std::uint64_t last_used);

 private:
  /// Rebuild dataset_/likelihood_/prior_ from `inputs_`; empty datasets
  /// clear the sampler pool (nothing to infer over).
  void rebuild_model(const std::unordered_set<topology::AsId>& exclude,
                     const ServiceConfig& config);

  /// Replace the chains with `n` fresh samplers over the current model,
  /// resuming chain c from states[c] for every given state.
  void start_chains(const ServiceConfig& config, std::size_t n,
                    const std::vector<core::HmcSamplerState>& states = {});

  /// Run `extra` trajectories on every chain (in parallel when `pool` is
  /// given), keep the draws past the first `keep_after`, and recompute the
  /// summaries/categories from them pooled in chain-index order.
  void advance_and_summarize(const ServiceConfig& config, std::size_t extra,
                             std::size_t keep_after, util::ThreadPool* pool);

  bgp::Prefix prefix_;
  bool built_ = false;
  std::uint64_t built_epoch_ = 0;
  std::uint64_t config_epoch_ = 0;
  std::uint64_t last_used_ = 0;

  std::vector<std::pair<topology::AsPath, bool>> inputs_;
  labeling::PathDataset dataset_;
  std::unique_ptr<core::Prior> prior_;
  std::unique_ptr<core::Likelihood> likelihood_;
  std::vector<core::HmcSampler> chains_;

  std::vector<core::MarginalSummary> summaries_;
  std::vector<core::Category> categories_;
};

}  // namespace because::service
