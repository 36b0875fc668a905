// Parallel campaign fan-out.
//
// A measurement study is rarely one campaign: the paper varies beacon prefix
// treatment, RFD deployment assumptions, and repeats runs across seeds. Each
// such scenario is an independent simulation with its own EventQueue and its
// own seeded RNG stream, so they parallelise embarrassingly. The runner fans
// a scenario list across a ThreadPool and returns results in scenario order;
// because no state is shared between scenarios, every result is bit-identical
// to what a direct run_campaign() of the same config produces, regardless of
// pool size or completion order (the parallel_campaign tests pin this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/campaign.hpp"
#include "util/thread_pool.hpp"

namespace because::experiment {

/// A named weighting over standard_variants(): which RFD parameter sets the
/// simulated Internet deploys (e.g. vendor-default-heavy vs RFC 7454 only).
struct RfdPreset {
  std::string name;
  std::vector<double> variant_weights;
};

/// Presets spanning the deployment assumptions the paper's inference must be
/// robust to: the measured mix, a deprecated-vendor-default-heavy Internet,
/// and a fully RFC 7454-compliant one.
std::vector<RfdPreset> standard_rfd_presets();

/// One independent unit of work: a full campaign configuration plus a label
/// for reports ("len24/vendor-heavy/seed7").
struct CampaignScenario {
  std::string name;
  CampaignConfig config;
};

/// Cartesian scenario grid: beacon prefix lengths x RFD presets x seeds over
/// a base configuration. Empty axes default to the base config's value.
struct CampaignGrid {
  CampaignConfig base;
  std::vector<std::uint8_t> beacon_prefix_lengths;
  std::vector<RfdPreset> rfd_presets;
  std::vector<std::uint64_t> seeds;

  /// Deterministic expansion order: seed-major, then prefix length, then
  /// preset. The order is part of the replay contract.
  std::vector<CampaignScenario> expand() const;
};

class ParallelCampaignRunner {
 public:
  /// `threads` = 0 sizes the pool to the hardware. `auto_shard_budget` turns
  /// on cells x shards nesting: each scenario's requested `config.shards` is
  /// clamped by effective_shards() so concurrent cells and their shard
  /// workers together never oversubscribe the machine. Results are unchanged
  /// either way (sharded campaigns are bit-identical at every shard count);
  /// only wall time and the shard-scoped obs counters (topo.partition.*)
  /// move, which is why the budget is opt-in — fixed-K runs keep their obs
  /// snapshots byte-identical across pool sizes.
  explicit ParallelCampaignRunner(std::size_t threads = 0,
                                  bool auto_shard_budget = false);

  std::size_t threads() const { return pool_.size(); }

  /// The cells x shards budget: the largest power of two that fits in
  /// hardware_threads() / min(pool_threads, cells), capped at `requested`
  /// and floored at 1 shard. `requested` <= 1 (one shard, or 0, which
  /// run_campaign rejects) is returned untouched.
  static std::uint32_t effective_shards(std::uint32_t requested,
                                        std::size_t pool_threads,
                                        std::size_t cells);

  /// Run every scenario; results come back in scenario order. If any
  /// scenario throws, the first (by scenario order) exception is rethrown —
  /// after all scenarios finished, so no worker still touches the inputs.
  std::vector<CampaignResult> run(const std::vector<CampaignScenario>& scenarios);
  std::vector<CampaignResult> run(const CampaignGrid& grid);

 private:
  util::ThreadPool pool_;
  bool auto_shard_budget_ = false;
};

}  // namespace because::experiment
