#include "experiment/parallel_runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace because::experiment {

std::vector<RfdPreset> standard_rfd_presets() {
  // Weights are over standard_variants() in order:
  //   cisco-60, juniper-60, rfc7454-60, cisco-30, cisco-10.
  return {
      {"paper-mix", {0.35, 0.25, 0.15, 0.15, 0.10}},
      {"vendor-heavy", {0.45, 0.35, 0.05, 0.10, 0.05}},
      {"rfc7454-only", {0.0, 0.0, 1.0, 0.0, 0.0}},
  };
}

std::vector<CampaignScenario> CampaignGrid::expand() const {
  const std::vector<std::uint8_t> lengths =
      beacon_prefix_lengths.empty()
          ? std::vector<std::uint8_t>{base.beacon_prefix_length}
          : beacon_prefix_lengths;
  const std::vector<RfdPreset> presets =
      rfd_presets.empty()
          ? std::vector<RfdPreset>{{"base", base.deployment.variant_weights}}
          : rfd_presets;
  const std::vector<std::uint64_t> seed_list =
      seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;

  std::vector<CampaignScenario> scenarios;
  scenarios.reserve(seed_list.size() * lengths.size() * presets.size());
  for (std::uint64_t seed : seed_list) {
    for (std::uint8_t length : lengths) {
      for (const RfdPreset& preset : presets) {
        CampaignScenario scenario;
        scenario.config = base;
        scenario.config.seed = seed;
        scenario.config.beacon_prefix_length = length;
        scenario.config.deployment.variant_weights = preset.variant_weights;
        scenario.name = "len" + std::to_string(length) + "/" + preset.name +
                        "/seed" + std::to_string(seed);
        scenarios.push_back(std::move(scenario));
      }
    }
  }
  return scenarios;
}

ParallelCampaignRunner::ParallelCampaignRunner(std::size_t threads,
                                               bool auto_shard_budget)
    : pool_(threads == 0 ? util::ThreadPool::hardware_threads() : threads),
      auto_shard_budget_(auto_shard_budget) {}

std::uint32_t ParallelCampaignRunner::effective_shards(std::uint32_t requested,
                                                       std::size_t pool_threads,
                                                       std::size_t cells) {
  if (requested <= 1 || cells == 0) return requested;
  const std::size_t concurrent = std::min(std::max<std::size_t>(pool_threads, 1), cells);
  const std::size_t budget = std::max<std::size_t>(
      1, util::ThreadPool::hardware_threads() / concurrent);
  std::uint32_t pow2 = 1;
  while (std::size_t{pow2} * 2 <= budget) pow2 *= 2;
  return std::min(requested, pow2);
}

std::vector<CampaignResult> ParallelCampaignRunner::run(
    const std::vector<CampaignScenario>& scenarios) {
  // The trace lane is the cell index, installed inside the worker task:
  // every event a cell emits then carries one lane written by one thread,
  // which is what keeps the merged trace identical at any pool size.
  // fan_out joins every cell before a throwing one's exception surfaces,
  // so no worker still reads the caller's scenario list.
  std::vector<CampaignResult> results =
      util::fan_out(&pool_, scenarios.size(), [&](std::size_t cell) {
        const CampaignConfig& config = scenarios[cell].config;
        obs::TraceLaneScope lane(static_cast<std::uint32_t>(cell));
        if (!auto_shard_budget_) return run_campaign(config);
        CampaignConfig clamped = config;
        clamped.shards =
            effective_shards(config.shards, pool_.size(), scenarios.size());
        return run_campaign(clamped);
      });

  // End-of-run summary (replaces per-cell progress logging): one table at
  // kInfo, emitted after all futures resolved so it never interleaves with
  // worker output and has no effect on the results or their digests.
  if (obs::enabled() && util::log_level() <= util::LogLevel::kInfo) {
    util::Table table({"scenario", "events"});
    std::uint64_t total = 0;
    for (std::size_t cell = 0; cell < results.size(); ++cell) {
      table.add_row({scenarios[cell].name,
                     std::to_string(results[cell].events_executed)});
      total += results[cell].events_executed;
    }
    table.add_row({"total", std::to_string(total)});
    util::log_info() << "campaign summary\n" << table.render();
  }
  return results;
}

std::vector<CampaignResult> ParallelCampaignRunner::run(
    const CampaignGrid& grid) {
  return run(grid.expand());
}

}  // namespace because::experiment
