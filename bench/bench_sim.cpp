// Simulator-core throughput bench: BENCH_sim.json.
//
// Three layers of measurement, from engine-only to end-to-end:
//   1. BM_EventEngine/calendar: pure schedule+dispatch throughput of the
//      calendar EventQueue on a synthetic campaign-shaped workload (typed
//      deliveries/timers plus a closure minority, dense time ties).
//   2. BM_SimNetwork/<ases>: events/s of a full BGP network simulation
//      (routers, RFD deployment, beacons, collectors) driven by the calendar
//      engine.
//   3. BM_ShardedSim/<ases>/shards:<K>: the BM_SimNetwork workload run on the
//      space-parallel sharded engine at K = 1, 2, 4, 8 shards. The sharded
//      runs are bit-identical, so every K executes the same event count and
//      ns_per_op ratios equal wall-clock ratios; BM_ShardedSimSpeedup/<ases>
//      is 1-shard wall over 8-shard wall. Meaningful speedup needs real
//      parallel hardware — scripts/check.sh only enforces the floor when
//      nproc >= 8.
//   4. BM_Campaign/<ases>: wall-clock of the whole run_campaign() pipeline
//      (topology generation through path labeling).
//   5. BM_WarmStart/<ases>/{dynamic,static}: the same campaign with a
//      converged-baseline warm start, establishing the baseline either by
//      draining the dynamic announcement cascade or by static_converge()
//      seeding. These are whole-run records (ns_per_op = wall-clock ns per
//      campaign, iterations = 1): the two modes execute different event
//      counts by design, so a per-event denominator would invert the
//      comparison. BM_WarmStartSpeedup/<ases> is the same wall-clock ratio
//      (how much of the setup cost the hierarchy-ranked static sweep
//      eliminates).
//
// Layer 1 and layer 2's smallest scale run as 21 interleaved obs-off /
// obs-on pairs (BM_*/obs records keep the best obs-on run); the derived
// BM_ObsOverhead/{engine,sim} records are the median per-pair cost ratios,
// gated absolutely by tools/bench_gate.py (--obs-tolerance, default 1.05).
//
// Scales default to 1000 5000 10000 ASes and can be overridden on the
// command line: bench_sim 1000 2000.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "beacon/controller.hpp"
#include "bench_common.hpp"
#include "bgp/network.hpp"
#include "collector/projects.hpp"
#include "collector/vantage_point.hpp"
#include "experiment/campaign.hpp"
#include "experiment/deployment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_engine.hpp"
#include "stats/rng.hpp"
#include "topology/generator.hpp"
#include "topology/partition.hpp"
#include "util/table.hpp"

namespace because::bench {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// -- 1. engine-only synthetic workload ---------------------------------------

struct EngineMeasurement {
  std::uint64_t events = 0;
  double seconds = 0.0;
  std::uint64_t allocs = 0;  ///< operator-new calls inside the measured region
  double events_per_second() const {
    return static_cast<double>(events) / seconds;
  }
  double allocs_per_event() const {
    return static_cast<double>(allocs) / static_cast<double>(events);
  }
};

EngineMeasurement measure_engine(std::uint64_t count) {
  sim::EventQueue queue;
  const sim::EventQueue::EventFn noop =
      [](sim::EventQueue&, void*, std::uint64_t, std::uint64_t) {};
  // Campaign-shaped times: millisecond-scale spacing with heavy ties. The
  // kind mix follows a measured 1k-AS campaign (74% deliveries, 21% MRAI,
  // 4% RFD, <1% generic closures), so the closure fallback carries the same
  // weight here as in a real run.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Interleave scheduling and draining so the pending set stays a rolling
  // window (as in a live simulation) rather than one up-front million.
  constexpr std::uint64_t kChunks = 64;
  const std::uint64_t allocs_before = allocation_count();
  const auto start = std::chrono::steady_clock::now();
  sim::Time horizon = 0;
  for (std::uint64_t chunk = 0; chunk < kChunks; ++chunk) {
    for (std::uint64_t i = 0; i < count / kChunks; ++i) {
      const std::uint64_t r = next();
      const sim::Time when = horizon + static_cast<sim::Time>(
                                           r % sim::minutes(10));
      if (r % 128 == 0) {
        queue.schedule_at(when, [] {});
      } else {
        queue.schedule_event_at(when,
                                r % 4 != 0 ? sim::EventKind::kBgpDelivery
                                           : sim::EventKind::kMraiTimer,
                                noop, nullptr, r, i);
      }
    }
    horizon += sim::minutes(5);
    queue.run_until(horizon);  // drain the older half, keep the newer pending
  }
  queue.run();
  EngineMeasurement m;
  m.events = queue.executed();
  m.seconds = seconds_since(start);
  m.allocs = allocation_count() - allocs_before;
  return m;
}

// -- 2. full network simulation ----------------------------------------------

EngineMeasurement measure_sim(std::size_t ases) {
  topology::GeneratorConfig tcfg;
  tcfg.tier1_count = 8;
  tcfg.transit_count = static_cast<std::uint32_t>(ases * 12 / 100);
  tcfg.stub_count =
      static_cast<std::uint32_t>(ases) - 8 - tcfg.transit_count;
  stats::Rng rng(2020);
  const topology::AsGraph graph = topology::generate(tcfg, rng);

  stats::Rng deploy_rng = rng.fork();
  const experiment::DeploymentPlan plan =
      experiment::plan_deployment(graph, experiment::DeploymentConfig{},
                                  deploy_rng);

  sim::EventQueue queue;
  stats::Rng net_rng = rng.fork();
  bgp::Network network(graph, bgp::NetworkConfig{}, queue, net_rng);
  plan.apply(network);

  collector::UpdateStore store(network.paths());
  stats::Rng noise_rng = rng.fork();
  const std::vector<topology::AsId> ids = graph.as_ids();
  for (std::size_t i = 0; i < 16; ++i) {
    collector::VantagePointConfig vp;
    vp.as = ids[(i * 37) % ids.size()];
    vp.project = collector::Project::kRipeRis;
    vp.missing_aggregator_prob = 0.01;
    collector::attach_vantage_point(network, {&store, 1}, vp, noise_rng,
                                    noise_rng);
  }

  beacon::Controller controller(network);
  std::uint32_t next_prefix = 100;
  std::size_t sites = 0;
  for (topology::AsId as : ids) {
    if (graph.tier(as) != topology::Tier::kStub) continue;
    beacon::BeaconSchedule schedule;
    schedule.update_interval = sim::minutes(1);
    schedule.burst_length = sim::minutes(10);
    schedule.break_length = sim::minutes(20);
    schedule.pairs = 1;
    schedule.start = static_cast<sim::Time>(sites) * sim::seconds(7);
    controller.deploy(as, bgp::Prefix{next_prefix++, 24}, schedule);
    if (++sites == 3) break;
  }

  const std::uint64_t allocs_before = allocation_count();
  const auto start = std::chrono::steady_clock::now();
  queue.run();
  EngineMeasurement m;
  m.events = queue.executed();
  m.seconds = seconds_since(start);
  m.allocs = allocation_count() - allocs_before;
  // Engine health line (stderr, not part of BENCH_sim.json): scan/skip work
  // per pop and resize count tell whether the calendar width tracked the
  // workload.
  std::fprintf(stderr,
               "[calendar %zu] resizes=%llu scan/ev=%.2f skip/ev=%.2f\n",
               ases, static_cast<unsigned long long>(queue.cal_resizes()),
               static_cast<double>(queue.cal_scan_steps()) /
                   static_cast<double>(m.events),
               static_cast<double>(queue.cal_window_skips()) /
                   static_cast<double>(m.events));
  return m;
}

// -- 2b. space-parallel sharded simulation -----------------------------------

// The BM_SimNetwork workload on the sharded engine: same topology seed, same
// deployment, same beacon schedule, but the network is partitioned into
// `shard_count` shards, vantage points tap per-shard stores (the campaign
// wiring), and the conservative-sync engine drives the run. All shard counts
// execute the identical event set (the bit-identity contract pinned by
// tests/sharded_engine_test.cpp), so measurements at different K are
// same-denominator by construction.
EngineMeasurement measure_sim_sharded(std::size_t ases,
                                      std::uint32_t shard_count) {
  topology::GeneratorConfig tcfg;
  tcfg.tier1_count = 8;
  tcfg.transit_count = static_cast<std::uint32_t>(ases * 12 / 100);
  tcfg.stub_count =
      static_cast<std::uint32_t>(ases) - 8 - tcfg.transit_count;
  stats::Rng rng(2020);
  const topology::AsGraph graph = topology::generate(tcfg, rng);

  stats::Rng deploy_rng = rng.fork();
  const experiment::DeploymentPlan plan =
      experiment::plan_deployment(graph, experiment::DeploymentConfig{},
                                  deploy_rng);

  topology::PartitionConfig pcfg;
  pcfg.shards = shard_count;
  const topology::Partition partition = topology::partition_graph(graph, pcfg);

  std::uint64_t seq_counter = 0;
  std::vector<std::unique_ptr<sim::EventQueue>> queues;
  bgp::NetworkShards shards;
  for (std::uint32_t s = 0; s < partition.shards; ++s) {
    queues.push_back(std::make_unique<sim::EventQueue>());
    queues.back()->bind_seq_counter(&seq_counter);
    shards.queues.push_back(queues.back().get());
    shards.tables.push_back(std::make_shared<topology::PathTable>());
  }
  shards.shard_of = partition.shard_of;

  stats::Rng net_rng = rng.fork();
  bgp::Network network(graph, bgp::NetworkConfig{}, shards, net_rng);
  plan.apply(network);

  std::vector<collector::UpdateStore> stores;
  stores.reserve(partition.shards);
  for (std::uint32_t s = 0; s < partition.shards; ++s)
    stores.emplace_back(shards.tables[s]);

  stats::Rng noise_rng = rng.fork();
  const std::vector<topology::AsId> ids = graph.as_ids();
  for (std::size_t i = 0; i < 16; ++i) {
    collector::VantagePointConfig vp;
    vp.as = ids[(i * 37) % ids.size()];
    vp.project = collector::Project::kRipeRis;
    vp.missing_aggregator_prob = 0.01;
    collector::attach_vantage_point(network, stores, vp, noise_rng, noise_rng);
  }

  beacon::Controller controller(network);
  std::uint32_t next_prefix = 100;
  std::size_t sites = 0;
  for (topology::AsId as : ids) {
    if (graph.tier(as) != topology::Tier::kStub) continue;
    beacon::BeaconSchedule schedule;
    schedule.update_interval = sim::minutes(1);
    schedule.burst_length = sim::minutes(10);
    schedule.break_length = sim::minutes(20);
    schedule.pairs = 1;
    schedule.start = static_cast<sim::Time>(sites) * sim::seconds(7);
    controller.deploy(as, bgp::Prefix{next_prefix++, 24}, schedule);
    if (++sites == 3) break;
  }

  sim::ShardedEngine::Config engine_config;
  engine_config.lookahead =
      std::min<sim::Duration>(network.min_cut_delay(), sim::seconds(1));
  sim::ShardedEngine engine(
      shards.queues, engine_config,
      [&network](std::uint32_t src, sim::EventQueue::CapturedEvent& cap) {
        return network.translate_capture(src, cap);
      });

  const std::uint64_t allocs_before = allocation_count();
  const auto start = std::chrono::steady_clock::now();
  EngineMeasurement m;
  m.events = engine.run();
  m.seconds = seconds_since(start);
  m.allocs = allocation_count() - allocs_before;
  return m;
}

// -- 3. whole campaign pipeline ----------------------------------------------

experiment::CampaignConfig campaign_at_scale(std::size_t ases) {
  experiment::CampaignConfig config = experiment::CampaignConfig::small();
  config.topology.tier1_count = 8;
  config.topology.transit_count = static_cast<std::uint32_t>(ases * 12 / 100);
  config.topology.stub_count = static_cast<std::uint32_t>(ases) - 8 -
                               config.topology.transit_count;
  config.beacon_sites = 2;
  config.update_intervals = {sim::minutes(1)};
  config.prefixes_per_interval = 1;
  config.burst_length = sim::minutes(10);
  config.break_length = sim::minutes(20);
  config.pairs = 1;
  config.anchor_cycles = 1;
  config.include_ripe_reference = false;
  config.vantage_points = 12;
  config.seed = 2020;
  return config;
}

// -- obs overhead: interleaved obs-off / obs-on pairs -------------------------

/// The best obs-off and obs-on runs, and the median of the per-pair on/off
/// cost ratios (the BM_ObsOverhead/* record).
struct ObsPairs {
  EngineMeasurement off;
  EngineMeasurement on;
  double overhead = 0.0;
};

/// Run `measure` as `pairs` interleaved obs-off / obs-on pairs. Pairing puts
/// both halves of a ratio under the same host conditions, and the median
/// drops the pairs a scheduler hiccup hit, so a gate on the overhead does
/// not flap on unchanged code.
template <typename Measure>
ObsPairs measure_obs_pairs(std::size_t pairs, Measure&& measure) {
  ObsPairs out;
  std::vector<double> ratios;
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    const EngineMeasurement off = measure();
    obs::set_enabled(true);
    obs::set_trace_enabled(true);
    const EngineMeasurement on = measure();
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    obs::reset();
    obs::trace_reset();
    if (pair == 0 || off.seconds < out.off.seconds) out.off = off;
    if (pair == 0 || on.seconds < out.on.seconds) out.on = on;
    ratios.push_back(off.events_per_second() / on.events_per_second());
  }
  std::nth_element(ratios.begin(), ratios.begin() + pairs / 2, ratios.end());
  out.overhead = ratios[pairs / 2];
  return out;
}

// -- 4. warm-started campaigns ------------------------------------------------

experiment::CampaignConfig warm_campaign_at_scale(std::size_t ases,
                                                  experiment::WarmStart mode) {
  experiment::CampaignConfig config = campaign_at_scale(ases);
  // The equivalence preconditions (tests/warm_start_test.cpp): jitter off so
  // dynamic convergence consumes no RNG, no noise/failure draws racing the
  // modes. Both modes then simulate the identical beacon-delta phase, so the
  // wall-clock difference is purely the baseline-establishment cost.
  config.network.mrai_jitter = 0.0;
  config.missing_aggregator_prob = 0.0;
  config.session_resets = 0;
  config.warm_start.mode = mode;
  config.warm_start.baseline_prefixes = 8;
  return config;
}

}  // namespace
}  // namespace because::bench

int main(int argc, char** argv) {
  using namespace because;
  using bench::EngineMeasurement;

  std::vector<std::size_t> scales;
  for (int i = 1; i < argc; ++i) {
    const long v = std::strtol(argv[i], nullptr, 10);
    if (v > 100) scales.push_back(static_cast<std::size_t>(v));
  }
  if (scales.empty()) scales = {1000, 5000, 10000};

  std::vector<bench::KernelBenchRecord> records;
  util::Table table({"measurement", "events", "seconds", "events/s", "allocs/event"});
  const auto add = [&](const std::string& name, const EngineMeasurement& m) {
    records.push_back({name, m.seconds * 1e9 / static_cast<double>(m.events),
                       m.events_per_second(),
                       static_cast<long long>(m.events),
                       m.allocs_per_event()});
    table.add_row({name, std::to_string(m.events),
                   util::fmt_double(m.seconds, 3),
                   util::fmt_double(m.events_per_second(), 0),
                   util::fmt_double(m.allocs_per_event(), 3)});
  };

  // 1. Engine-only, on the synthetic workload, run as interleaved obs-off /
  // obs-on pairs. The derived BM_ObsOverhead/engine record carries the
  // median of the per-pair on/off cost ratios as ns_per_op; bench_gate
  // checks it against an absolute ceiling (default 1.05: obs-on may cost at
  // most 5% of event-loop throughput). The BM_EventEngine records keep the
  // best run of each side.
  constexpr std::uint64_t kEngineEvents = 1'000'000;
  constexpr std::size_t kObsPairs = 21;
  const bench::ObsPairs engine = bench::measure_obs_pairs(
      kObsPairs, [] { return bench::measure_engine(kEngineEvents); });
  add("BM_EventEngine/calendar", engine.off);
  add("BM_EventEngine/calendar/obs", engine.on);
  records.push_back(
      {"BM_ObsOverhead/engine", engine.overhead, engine.overhead, 1});

  // 2. Full network simulation per scale. The smallest scale runs as the
  // same 21 interleaved pairs and carries the BM_ObsOverhead/sim median;
  // its BM_SimNetwork records keep the best run of each side.
  double sim_obs_overhead = 0.0;
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const std::string name = "BM_SimNetwork/" + std::to_string(scales[i]);
    if (i != 0) {
      add(name, bench::measure_sim(scales[i]));
      continue;
    }
    const bench::ObsPairs sim = bench::measure_obs_pairs(
        kObsPairs, [&] { return bench::measure_sim(scales[i]); });
    add(name, sim.off);
    add(name + "/obs", sim.on);
    sim_obs_overhead = sim.overhead;
    records.push_back(
        {"BM_ObsOverhead/sim", sim_obs_overhead, sim_obs_overhead, 1});
  }

  // 2b. Sharded engine at K = 1, 2, 4, 8 shards. Default scales follow the
  // ISSUE targets (10k and the 70k Internet-scale graph); explicit
  // command-line scales override them so quick local runs stay quick. The
  // speedup record is 1-shard wall over 8-shard wall — same event count at
  // every K, so it is also the ns_per_op ratio.
  const std::vector<std::size_t> shard_scales =
      argc > 1 ? scales : std::vector<std::size_t>{10000, 70000};
  double sharded_speedup = 0.0;
  for (std::size_t ases : shard_scales) {
    double one_shard_seconds = 0.0;
    for (std::uint32_t k : {1u, 2u, 4u, 8u}) {
      const EngineMeasurement m = bench::measure_sim_sharded(ases, k);
      add("BM_ShardedSim/" + std::to_string(ases) + "/shards:" +
              std::to_string(k),
          m);
      if (k == 1) one_shard_seconds = m.seconds;
      if (k == 8) {
        sharded_speedup = one_shard_seconds / m.seconds;
        records.push_back({"BM_ShardedSimSpeedup/" + std::to_string(ases),
                           sharded_speedup, sharded_speedup, 1});
      }
    }
  }

  // 3. Whole campaigns (topology generation through labeling); allocs/event
  // here includes setup and labeling, so it is an end-to-end figure, not a
  // message-path one.
  for (std::size_t ases : scales) {
    const std::uint64_t allocs_before = bench::allocation_count();
    const auto start = std::chrono::steady_clock::now();
    const experiment::CampaignResult result =
        experiment::run_campaign(bench::campaign_at_scale(ases));
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EngineMeasurement m;
    m.events = result.events_executed;
    m.seconds = secs;
    m.allocs = bench::allocation_count() - allocs_before;
    add("BM_Campaign/" + std::to_string(ases), m);
  }

  // 4. Warm-started campaigns: dynamic vs static baseline establishment.
  // events = beacon-delta events only for static, delta + baseline cascade
  // for dynamic: the modes execute different event counts *by design*, so
  // these records use the whole campaign as the op (ns_per_op = wall-clock
  // ns per run, iterations = 1, allocs_per_op = allocs per run). A per-event
  // denominator would divide dynamic's extra cascade work by the cascade's
  // own events and invert the comparison — the historical mismatch where
  // per-record ns_per_op said static >= dynamic while BM_WarmStartSpeedup
  // said 1.2-1.3x. Now the speedup IS the ratio of the two records.
  const auto add_campaign = [&](const std::string& name,
                                const EngineMeasurement& m) {
    records.push_back({name, m.seconds * 1e9, m.events_per_second(), 1,
                       static_cast<double>(m.allocs)});
    table.add_row({name, std::to_string(m.events),
                   util::fmt_double(m.seconds, 3),
                   util::fmt_double(m.events_per_second(), 0),
                   util::fmt_double(m.allocs_per_event(), 3)});
  };
  double warm_speedup = 0.0;
  for (std::size_t ases : scales) {
    EngineMeasurement per_mode[2];
    const experiment::WarmStart modes[2] = {experiment::WarmStart::kDynamic,
                                            experiment::WarmStart::kStatic};
    const char* names[2] = {"dynamic", "static"};
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t allocs_before = bench::allocation_count();
      const auto start = std::chrono::steady_clock::now();
      const experiment::CampaignResult result = experiment::run_campaign(
          bench::warm_campaign_at_scale(ases, modes[i]));
      per_mode[i].seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
      per_mode[i].events = result.events_executed;
      per_mode[i].allocs = bench::allocation_count() - allocs_before;
      add_campaign("BM_WarmStart/" + std::to_string(ases) + "/" + names[i],
                   per_mode[i]);
    }
    warm_speedup = per_mode[0].seconds / per_mode[1].seconds;
    records.push_back({"BM_WarmStartSpeedup/" + std::to_string(ases),
                       warm_speedup, warm_speedup, 1});
  }

  std::printf("%s", table.render("Simulator core throughput").c_str());
  std::printf("obs-on overhead: engine %.3fx, sim %.3fx\n",
              engine.overhead, sim_obs_overhead);
  std::printf("sharded sim speedup (8 shards vs 1) at %zu ASes: %.2fx\n",
              shard_scales.back(), sharded_speedup);
  std::printf("warm-start speedup (static vs dynamic) at %zu ASes: %.2fx\n",
              scales.back(), warm_speedup);

  if (!bench::write_bench_json("BENCH_sim.json", records))
    std::fprintf(stderr, "failed to write BENCH_sim.json\n");
  return 0;
}
