#include "experiment/campaign.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bgp/static_converge.hpp"
#include "collector/vantage_point.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sharded_engine.hpp"
#include "topology/partition.hpp"
#include "util/contracts.hpp"

namespace because::experiment {

namespace {

/// Graph, beacon sites, and deployment plan: the first draws on `rng`,
/// before any shard-dependent setup.
void build_graph_and_plan(const CampaignConfig& config, stats::Rng& rng,
                          CampaignResult& result) {
  result.graph = topology::generate(config.topology, rng);

  std::vector<topology::AsId> tier1s, transits;
  topology::AsId max_as = 0;
  for (topology::AsId as : result.graph.as_ids()) {
    max_as = std::max(max_as, as);
    if (result.graph.tier(as) == topology::Tier::kTier1) tier1s.push_back(as);
    if (result.graph.tier(as) == topology::Tier::kTransit) transits.push_back(as);
  }

  // Beacon sites: "Beacons are a maximum of two AS hops away from a Tier 1
  // provider." Even-indexed sites home directly to a tier-1 (one hop); odd
  // ones to a transit AS (two hops). Half are multi-homed.
  topology::AsId next_as = max_as + 1;
  for (std::size_t s = 0; s < config.beacon_sites; ++s) {
    const topology::AsId site = next_as++;
    result.graph.add_as(site, topology::Tier::kStub);
    if (s % 2 == 0 || transits.empty()) {
      result.graph.add_provider_customer(tier1s[s % tier1s.size()], site);
    } else {
      result.graph.add_provider_customer(transits[rng.index(transits.size())], site);
    }
    if (rng.bernoulli(0.5)) {
      const topology::AsId second = tier1s[(s + 1) % tier1s.size()];
      if (!result.graph.has_link(second, site))
        result.graph.add_provider_customer(second, site);
    }
    result.sites.push_back(site);
  }

  // Deployment: beacon sites and their direct upstreams never damp (the
  // paper verified its upstream networks do not use RFD).
  DeploymentConfig deployment_config = config.deployment;
  for (topology::AsId site : result.sites) {
    deployment_config.never_damp.insert(site);
    for (const topology::Neighbor& nb : result.graph.neighbors(site))
      deployment_config.never_damp.insert(nb.id);
  }
  stats::Rng deploy_rng = rng.fork();
  result.plan = plan_deployment(result.graph, deployment_config, deploy_rng);
}

}  // namespace

CampaignConfig CampaignConfig::small() {
  CampaignConfig c;
  c.topology.tier1_count = 4;
  c.topology.transit_count = 24;
  c.topology.stub_count = 60;
  c.beacon_sites = 3;
  c.update_intervals = {sim::minutes(1)};
  c.burst_length = sim::minutes(20);
  c.break_length = sim::hours(2);
  c.pairs = 3;
  c.anchor_cycles = 2;
  c.vantage_points = 16;
  c.prefixes_per_interval = 2;
  c.deployment.damping_fraction = 0.15;
  c.deployment.transit_weight = 5.0;
  return c;
}

CampaignConfig CampaignConfig::paper() {
  CampaignConfig c;
  c.topology.tier1_count = 8;
  c.topology.transit_count = 120;
  c.topology.stub_count = 600;
  c.beacon_sites = 7;
  c.update_intervals = {sim::minutes(1), sim::minutes(2), sim::minutes(3)};
  c.burst_length = sim::hours(1);
  c.break_length = sim::hours(2);
  c.pairs = 6;
  c.anchor_cycles = 4;
  c.vantage_points = 30;
  return c;
}

CampaignConfig CampaignConfig::march2020() {
  CampaignConfig c = paper();
  c.update_intervals = {sim::minutes(1), sim::minutes(2), sim::minutes(3)};
  c.burst_length = sim::hours(1);
  c.break_length = sim::hours(3);  // paper: 6 h at full scale
  return c;
}

CampaignConfig CampaignConfig::april2020() {
  CampaignConfig c = paper();
  c.update_intervals = {sim::minutes(5), sim::minutes(10), sim::minutes(15)};
  c.burst_length = sim::hours(1);
  c.break_length = sim::hours(2);
  return c;
}

std::vector<labeling::LabeledPath> CampaignResult::labeled_for_interval(
    sim::Duration interval) const {
  std::vector<labeling::LabeledPath> out;
  // Collect the prefixes flapping at `interval` and filter the labels.
  std::unordered_set<bgp::Prefix> wanted;
  for (const BeaconDeployment& b : beacons)
    if (b.update_interval == interval) wanted.insert(b.prefix);
  for (const labeling::LabeledPath& p : labeled)
    if (wanted.count(p.prefix) != 0) out.push_back(p);
  return out;
}

std::unordered_set<topology::AsId> CampaignResult::site_set() const {
  return {sites.begin(), sites.end()};
}

CampaignResult run_campaign(const CampaignConfig& config) {
  if (config.beacon_sites == 0)
    throw std::invalid_argument("run_campaign: need at least one beacon site");
  if (config.update_intervals.empty())
    throw std::invalid_argument("run_campaign: need at least one update interval");
  if (config.shards == 0)
    throw std::invalid_argument("run_campaign: need at least one shard");

  CampaignResult result;
  result.config = config;

  stats::Rng rng(config.seed);
  build_graph_and_plan(config, rng, result);

  // Partition the AS graph (beacon sites included) and build one queue plus
  // one path table per shard. All queues share one global sequence counter —
  // the backbone of the engine's serial-order merge.
  topology::PartitionConfig partition_config;
  partition_config.shards = config.shards;
  const topology::Partition partition =
      topology::partition_graph(result.graph, partition_config);
  const std::uint32_t shard_count = partition.shards;

  std::uint64_t seq_counter = 0;
  std::vector<std::unique_ptr<sim::EventQueue>> queues;
  bgp::NetworkShards shards;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    queues.push_back(std::make_unique<sim::EventQueue>());
    queues.back()->bind_seq_counter(&seq_counter);
    shards.queues.push_back(queues.back().get());
    shards.tables.push_back(std::make_shared<topology::PathTable>());
  }
  shards.shard_of = partition.shard_of;

  stats::Rng net_rng = rng.fork();
  bgp::Network network(result.graph, config.network, shards, net_rng);
  // Per-shard stores record against their shard's table during the run;
  // merge_shards turns them into the result's store afterwards.
  std::vector<collector::UpdateStore> shard_stores;
  shard_stores.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s)
    shard_stores.emplace_back(shards.tables[s]);
  result.plan.apply(network);

  // Lookahead: a shard may only run ahead while no other shard can affect
  // it, bounded by the cheapest partition-cut link. Clamped to 1 s so it
  // stays far under the 5 s collector export-delay floor: every collector
  // record event is then scheduled at least a full lookahead out, always
  // captured at a round boundary, and so always carries a globally ordered
  // seq — the store-merge key.
  sim::ShardedEngine::Config engine_config;
  engine_config.lookahead =
      std::min<sim::Duration>(network.min_cut_delay(), sim::seconds(1));
  engine_config.force_rounds = config.force_rounds;
  sim::ShardedEngine engine(
      shards.queues, engine_config,
      [&network](std::uint32_t src, sim::EventQueue::CapturedEvent& cap) {
        return network.translate_capture(src, cap);
      });

  std::uint64_t executed = 0;
  const auto now_across_shards = [&queues] {
    sim::Time latest = 0;
    for (const auto& q : queues) latest = std::max(latest, q->now());
    return latest;
  };

  // Converged-baseline warm start: establish the "already converged
  // Internet" before any beacon flaps, either by draining the real event
  // cascade through the engine (kDynamic, the reference) or by seeding
  // converged RIBs directly (kStatic, the Internet-scale path). Both consume
  // the fork identically, so beacon-phase randomness matches between the
  // modes.
  sim::Time schedule_offset = 0;
  if (config.warm_start.mode != WarmStart::kNone) {
    stats::Rng warm_rng = rng.fork();
    const auto site_exclusion = result.site_set();
    std::vector<topology::AsId> origin_pool;
    for (topology::AsId as : result.graph.as_ids())
      if (site_exclusion.count(as) == 0) origin_pool.push_back(as);
    std::vector<bgp::StaticOrigin> origins;
    for (std::size_t k = 0; k < config.warm_start.baseline_prefixes; ++k) {
      bgp::StaticOrigin o;
      o.as = origin_pool[warm_rng.index(origin_pool.size())];
      o.prefix = bgp::Prefix{kBaselinePrefixBase + static_cast<std::uint32_t>(k),
                             config.beacon_prefix_length};
      o.beacon_timestamp = 0;
      origins.push_back(o);
      result.baseline.push_back(o.prefix);
    }
    if (config.warm_start.mode == WarmStart::kDynamic) {
      for (const bgp::StaticOrigin& o : origins)
        network.router(o.as).originate(o.prefix, o.beacon_timestamp);
      executed += engine.run();
      BECAUSE_CHECK(now_across_shards() <= config.warm_start.horizon,
                    "run_campaign: dynamic warm start overran its horizon ("
                        << now_across_shards() << " > "
                        << config.warm_start.horizon << ")");
    } else {
      bgp::static_converge(network, origins);
    }
    schedule_offset = config.warm_start.horizon;
  }

  // Traffic-engineering prepending on a few sessions (stripped by the
  // labeling's path cleaning, but present in the raw dumps).
  if (config.prepending_prob > 0.0) {
    stats::Rng prepend_rng = rng.fork();
    for (topology::AsId as : result.graph.as_ids()) {
      for (const topology::Neighbor& nb : result.graph.neighbors(as)) {
        if (!prepend_rng.bernoulli(config.prepending_prob)) continue;
        network.router(as).set_export_prepending(
            nb.id, static_cast<std::size_t>(prepend_rng.uniform_int(1, 2)));
      }
    }
  }

  // Vantage points across the three collector projects. Record-time noise
  // comes from per-VP lanes forked in registration order, a
  // shard-count-invariant sequence. The lanes fork from vp_rng, spent after
  // the picks, so noise_rng's setup draws (export delays, second-project
  // feeds) stay those of the former single-queue serial engine.
  std::vector<topology::AsId> vp_pool;
  const auto site_set = result.site_set();
  for (topology::AsId as : result.graph.as_ids())
    if (site_set.count(as) == 0) vp_pool.push_back(as);
  stats::Rng vp_rng = rng.fork();
  const std::size_t vp_count = std::min(config.vantage_points, vp_pool.size());
  const auto vp_picks = vp_rng.sample_without_replacement(vp_pool.size(), vp_count);
  const collector::Project project_cycle[3] = {collector::Project::kRipeRis,
                                               collector::Project::kRouteViews,
                                               collector::Project::kIsolario};
  stats::Rng noise_rng = rng.fork();
  const auto attach_vp = [&](const collector::VantagePointConfig& vp_config) {
    const collector::VpId id = collector::attach_vantage_point(
        network, shard_stores, vp_config, noise_rng, vp_rng);
    const sim::Duration delay = shard_stores[0].vp(id).export_delay;
    BECAUSE_CHECK(delay > engine_config.lookahead,
                  "run_campaign: collector export delay " << delay
                      << " under the engine lookahead "
                      << engine_config.lookahead);
    result.vps.push_back(id);
  };
  for (std::size_t i = 0; i < vp_picks.size(); ++i) {
    collector::VantagePointConfig vp_config;
    vp_config.as = vp_pool[vp_picks[i]];
    vp_config.project = project_cycle[i % 3];
    vp_config.missing_aggregator_prob = config.missing_aggregator_prob;
    attach_vp(vp_config);
    if (noise_rng.bernoulli(config.second_project_prob)) {
      vp_config.project = project_cycle[(i + 1) % 3];
      attach_vp(vp_config);
    }
  }

  // Beacon and anchor schedules (the Controller schedules each deployment on
  // its origin's shard queue).
  beacon::Controller controller(network);
  std::uint32_t next_prefix = 1;
  for (std::size_t s = 0; s < result.sites.size(); ++s) {
    const topology::AsId site = result.sites[s];
    // A small per-site stagger avoids artificial global synchronisation.
    const sim::Time site_start =
        schedule_offset + static_cast<sim::Time>(s) * sim::seconds(7);

    for (sim::Duration interval : config.update_intervals) {
      for (std::size_t rep = 0; rep < std::max<std::size_t>(1, config.prefixes_per_interval);
           ++rep) {
        BeaconDeployment b;
        b.site = site;
        b.site_index = s;
        b.prefix = bgp::Prefix{next_prefix++, config.beacon_prefix_length};
        b.update_interval = interval;
        b.schedule.update_interval = interval;
        b.schedule.burst_length = config.burst_length;
        b.schedule.break_length = config.break_length;
        b.schedule.pairs = config.pairs;
        b.schedule.start = site_start + static_cast<sim::Time>(rep) * sim::seconds(3);
        controller.deploy(site, b.prefix, b.schedule);
        result.beacons.push_back(b);
      }
    }

    if (config.include_anchor) {
      AnchorDeployment a;
      a.site = site;
      a.site_index = s;
      a.prefix = bgp::Prefix{next_prefix++, config.beacon_prefix_length};
      a.schedule.period = config.anchor_period;
      a.schedule.cycles = config.anchor_cycles;
      a.schedule.start = site_start;
      controller.deploy_anchor(site, a.prefix, a.schedule);
      result.anchors.push_back(a);
    }
    if (config.include_ripe_reference) {
      AnchorDeployment a;
      a.site = site;
      a.site_index = s;
      a.prefix = bgp::Prefix{next_prefix++, config.beacon_prefix_length};
      a.schedule.period = config.anchor_period;
      a.schedule.cycles = config.anchor_cycles;
      a.schedule.start = site_start + sim::minutes(13);
      a.ripe_reference = true;
      controller.deploy_anchor(site, a.prefix, a.schedule);
      result.anchors.push_back(a);
    }
  }

  // Background Internet churn, each closure on its origin's shard queue.
  if (config.background_prefixes > 0) {
    stats::Rng churn_rng = rng.fork();
    sim::Time horizon = 0;
    for (const BeaconDeployment& b : result.beacons)
      horizon = std::max(horizon, b.schedule.end());
    const auto site_exclusion = result.site_set();
    std::vector<topology::AsId> origin_pool;
    for (topology::AsId as : result.graph.as_ids())
      if (site_exclusion.count(as) == 0) origin_pool.push_back(as);

    for (std::size_t k = 0; k < config.background_prefixes; ++k) {
      const bgp::Prefix prefix{next_prefix++, 24};
      result.background.push_back(prefix);
      const topology::AsId origin_as =
          origin_pool[churn_rng.index(origin_pool.size())];
      bgp::Router& origin = network.router(origin_as);
      sim::EventQueue& origin_queue = network.queue_for(origin_as);

      // Churn intensity is heavy-tailed: most prefixes are quiet, a few
      // flap far harder than any beacon.
      std::size_t events;
      const double roll = churn_rng.uniform();
      if (roll < 0.70) events = static_cast<std::size_t>(churn_rng.uniform_int(2, 10));
      else if (roll < 0.90) events = static_cast<std::size_t>(churn_rng.uniform_int(60, 240));
      else events = static_cast<std::size_t>(churn_rng.uniform_int(800, 2000));

      bool announced = false;
      for (std::size_t e = 0; e < events; ++e) {
        // Churn stays inside the beacon phase: with a warm start active, an
        // event before the horizon would race the two convergence modes.
        const sim::Time when = churn_rng.uniform_int(schedule_offset, horizon);
        if (!announced || churn_rng.bernoulli(0.6)) {
          origin_queue.schedule_at(
              when, [&origin, prefix, when] { origin.originate(prefix, when); });
          announced = true;
        } else {
          origin_queue.schedule_at(
              when, [&origin, prefix] { origin.withdraw_origin(prefix); });
        }
      }
    }
  }

  // Failure injection. A reset touches both endpoint routers, so it splits
  // into one closure per side, each on its endpoint's shard queue (drawing
  // two consecutive setup seqs — deterministic at every shard count).
  if (config.session_resets > 0) {
    std::vector<std::pair<topology::AsId, topology::AsId>> links;
    for (topology::AsId as : result.graph.as_ids())
      for (const topology::Neighbor& nb : result.graph.neighbors(as))
        if (as < nb.id) links.emplace_back(as, nb.id);
    sim::Time horizon = 0;
    for (const BeaconDeployment& b : result.beacons)
      horizon = std::max(horizon, b.schedule.end());
    stats::Rng reset_rng = rng.fork();
    for (std::size_t k = 0; k < config.session_resets && !links.empty(); ++k) {
      const auto [a, b] = links[reset_rng.index(links.size())];
      const sim::Time when =
          reset_rng.uniform_int(schedule_offset + sim::minutes(1), horizon);
      network.queue_for(a).schedule_at(when, [&network, a = a, b = b] {
        network.router(a).reset_session(b);
      });
      network.queue_for(b).schedule_at(when, [&network, a = a, b = b] {
        network.router(b).reset_session(a);
      });
    }
  }

  executed += engine.run();
  result.events_executed = executed;
  if (obs::enabled()) {
    obs::add(obs::Counter::kCampaignCells, 1);
    obs::add(obs::Counter::kCampaignEvents, result.events_executed);
  }
  // Span end = the last *executed* event, not a queue's clock: the final
  // round's bounded run clamps shard clocks to its horizon, which would make
  // the trace span shard-count-dependent.
  sim::Time campaign_end = 0;
  for (const auto& q : queues)
    campaign_end = std::max(campaign_end, q->current_event_when());
  obs::trace_complete("campaign.run", 0, campaign_end);

  // Restore the serial record order across the shard stores (one shard's
  // store is handed over as is), then clean and label.
  result.store = collector::UpdateStore::merge_shards(std::move(shard_stores));
  result.store.discard_invalid_aggregators();

  for (const BeaconDeployment& b : result.beacons) {
    auto paths = labeling::label_paths(result.store, b.prefix, b.schedule,
                                       config.signature);
    result.labeled.insert(result.labeled.end(),
                          std::make_move_iterator(paths.begin()),
                          std::make_move_iterator(paths.end()));
    auto seen = labeling::observed_paths(result.store, b.prefix);
    result.observed.insert(result.observed.end(),
                           std::make_move_iterator(seen.begin()),
                           std::make_move_iterator(seen.end()));
  }
  return result;
}

}  // namespace because::experiment
