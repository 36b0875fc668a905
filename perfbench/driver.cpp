// perfbench driver: one workload per process, run through the library's
// public API, printing a human-readable metric block and, as its last
// stdout line, the JSON result.
//
//   perfbench_driver --workload <paper_study|internet_scale|becaused_live>
//                    --seed <n> --seconds <s> --trace <0|1> [--quick]
//                    [--out <dir>]
//
// --trace 0 reports the end-to-end metrics from untraced units. --trace 1
// alternates untraced and traced units (spans around every call into a
// layer, obs counters read at the same points), adds coverage probes for
// the layers the workload's units do not call, and reports the per-layer
// metrics. README.md in this directory documents the workloads, the metric
// table and the noise evidence behind the sizing.
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "beacon/schedule.hpp"
#include "bgp/static_converge.hpp"
#include "core/evaluate.hpp"
#include "core/kernels/dispatch.hpp"
#include "core/likelihood.hpp"
#include "core/prior.hpp"
#include "experiment/campaign.hpp"
#include "experiment/pipeline.hpp"
#include "heuristics/combined.hpp"
#include "labeling/path_key.hpp"
#include "probe.hpp"
#include "rov/rov.hpp"
#include "service/daemon.hpp"
#include "stats/ess.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace bc = because;

/// Worker threads of every pool the driver creates (paper_study's study
/// pool, the daemon's chain pool, the sharded engine's shard pool). The
/// driver thread plus this many workers is the per-run thread budget.
constexpr std::size_t kPoolThreads = 2;
constexpr long kThreadBudget = 1 + static_cast<long>(kPoolThreads);

/// Set-ups per run (setup_s is their median). The becaused set-up runs a
/// full campaign, so it repeats fewer times than the cheaper warm-ups.
constexpr int kWarmups = 7;
constexpr int kServiceSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 2020;
  double seconds = 25.0;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".perfbench_out";
};

/// Per-run state: the tracer, failure accounting and raw metric samples.
struct Run {
  Options opt;
  Tracer tracer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Samples the driver measures directly (not from spans), by metric.
  std::map<std::string, std::vector<double>> samples;

  /// Count one checked operation; a failing check is logged and counted.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  void sample(const std::string& metric, double value) {
    samples[metric].push_back(value);
  }
};

// ---- inputs ------------------------------------------------------------------
//
// Every size below is the benchmark's own constant, so the workloads change
// only when this directory changes. The values are those of the repository's
// bench-scale figure/table benches at the time the benchmark was defined.

/// Seed of every set-up input. Set-up does not depend on --seed, so setup_s
/// varies with the host and the code, not with the generated input.
constexpr std::uint64_t kSetupSeed = 2020;

/// The bench-scale campaign: ~650-AS topology, 7 beacon sites, 50 vantage
/// points, 5 Burst-Break pairs of 1 h / 100 min, 2 prefixes per site.
bc::experiment::CampaignConfig bench_campaign(bc::sim::Duration interval,
                                              std::uint64_t seed) {
  bc::experiment::CampaignConfig config;
  config.topology.tier1_count = 8;
  config.topology.transit_count = 140;
  config.topology.stub_count = 500;
  config.beacon_sites = 7;
  config.update_intervals = {interval};
  config.prefixes_per_interval = 2;
  config.burst_length = bc::sim::hours(1);
  config.break_length = bc::sim::minutes(100);
  config.pairs = 5;
  config.anchor_cycles = 3;
  config.vantage_points = 50;
  config.deployment.damping_fraction = 0.09;
  config.deployment.transit_weight = 3.0;
  config.prepending_prob = 0.0;
  config.seed = seed;
  return config;
}

/// Shrinks a campaign's topology and measurement plane for --quick.
void make_quick(bc::experiment::CampaignConfig& config) {
  config.topology.transit_count = 30;
  config.topology.stub_count = 80;
  config.beacon_sites = 2;
  config.vantage_points = 12;
}

/// The Table 4 inference settings: MH 3000 samples after 2000 burn-in
/// (thin 2), HMC 600 after 200 (30 leapfrog steps), Beta(1, 1.5) prior,
/// 5% false/missed signature noise.
bc::experiment::InferenceConfig bench_inference() {
  bc::experiment::InferenceConfig config;
  config.mh.samples = 3000;
  config.mh.burn_in = 2000;
  config.mh.thin = 2;
  config.hmc.samples = 600;
  config.hmc.burn_in = 200;
  config.hmc.leapfrog_steps = 30;
  config.prior_alpha = 1.0;
  config.prior_beta = 1.5;
  config.noise.false_signature = 0.05;
  config.noise.missed_signature = 0.05;
  config.pinpoint_noise_guard = 0.5;
  return config;
}

/// Decision threshold of the combined heuristic score (Table 4).
constexpr double kHeuristicThreshold = 0.7;

/// One Table 4 study: the bench-scale topology with 2 sites, 12 vantage
/// points and one Burst-Break pair, and the full Table 4 inference. Small
/// enough that a run holds dozens of studies on distinct inputs, so their
/// sizes average out (see README "Noise").
bc::experiment::CampaignConfig study_config(std::uint64_t seed, bool quick) {
  bc::experiment::CampaignConfig config = bench_campaign(bc::sim::minutes(1), seed);
  config.pairs = 1;
  config.beacon_sites = 2;
  config.vantage_points = 12;
  if (quick) make_quick(config);
  return config;
}

/// The k-th input a workload derives from its seed (k = 0: the seed's own).
std::uint64_t input_seed(std::uint64_t seed, std::size_t k) { return seed + 1000003 * k; }

bc::experiment::InferenceConfig study_inference(bool quick) {
  return quick ? bc::experiment::InferenceConfig::fast() : bench_inference();
}

bc::experiment::CampaignConfig internet_config(std::uint32_t ases,
                                               std::uint64_t seed) {
  bc::experiment::CampaignConfig config;
  config.topology = bc::topology::internet_like(ases);
  config.beacon_sites = 1;
  config.update_intervals = {bc::sim::minutes(2)};
  config.prefixes_per_interval = 1;
  config.burst_length = bc::sim::minutes(6);
  config.break_length = bc::sim::minutes(20);
  config.pairs = 1;
  config.include_anchor = false;
  config.include_ripe_reference = false;
  config.vantage_points = 8;
  config.background_prefixes = 0;
  config.session_resets = 0;
  config.missing_aggregator_prob = 0.0;
  config.network.mrai_jitter = 0.0;
  config.warm_start.mode = bc::experiment::WarmStart::kStatic;
  config.warm_start.baseline_prefixes = 4;
  config.shards = static_cast<std::uint32_t>(kPoolThreads);
  config.seed = seed;
  return config;
}

/// Campaigns a becaused_live run serves, one pass each, each on its own
/// input: a run averages over several topologies.
constexpr std::size_t kServiceCampaigns = 3;

bc::experiment::CampaignConfig service_campaign_config(std::uint64_t seed,
                                                       bool quick) {
  bc::experiment::CampaignConfig config = bench_campaign(bc::sim::minutes(5), seed);
  // Three Burst-Break pairs instead of five, so a run holds a pass on each
  // of its campaigns.
  config.pairs = 3;
  if (quick) make_quick(config);
  return config;
}

/// The service settings of tools/becaused_bench.cpp.
bc::service::ServiceConfig service_config(bool quick) {
  bc::service::ServiceConfig config;
  config.inference = study_inference(quick);
  config.inference.hmc.samples = quick ? 60 : 300;
  config.inference.hmc.burn_in = quick ? 20 : 100;
  config.pool_chains = 4;
  config.refresh_samples = quick ? 16 : 64;
  config.hot_prefix_capacity = 64;
  return config;
}

// ---- the paper flow ----------------------------------------------------------

/// Everything a traced core call chain leaves for the per-layer metrics.
struct CoreTrace {
  std::optional<bc::core::Chain> mh;
  std::optional<bc::core::Chain> hmc;
  double mh_s = 0.0;
  double hmc_s = 0.0;
};

/// run_inference's dataset step, called on its own so it gets a span: the
/// same (prefix, label, path) de-duplication, then the exclusion filter.
bc::labeling::PathDataset build_dataset(
    const std::vector<bc::labeling::LabeledPath>& paths,
    const std::unordered_set<bc::topology::AsId>& exclude) {
  std::unordered_set<std::string> seen;
  bc::labeling::PathDataset dataset;
  for (const bc::labeling::LabeledPath& p : paths) {
    std::string key = std::to_string(p.prefix.id) + "|" + (p.rfd ? "1|" : "0|") +
                      bc::labeling::path_to_string(p.path);
    if (!seen.insert(std::move(key)).second) continue;
    dataset.add_path(p.path, p.rfd, exclude);
  }
  return dataset;
}

/// run_inference(dataset, config) as its constituent public calls, each in
/// its own span. Must give the categories the single call gives (checked by
/// the caller).
std::vector<bc::core::Category> traced_inference(
    const bc::labeling::PathDataset& dataset,
    const bc::experiment::InferenceConfig& config, Tracer& tracer,
    CoreTrace& out) {
  namespace core = bc::core;
  const core::Likelihood likelihood(dataset, config.noise);
  const core::Prior prior = core::Prior::beta(config.prior_alpha, config.prior_beta);
  {
    Scope s(tracer, "core.mh", true);
    const Clock::time_point t = Clock::now();
    out.mh = core::run_metropolis(likelihood, prior, config.mh);
    out.mh_s = seconds_between(t, Clock::now());
  }
  std::vector<core::Category> categories;
  {
    Scope s(tracer, "core.summary");
    categories = core::categorize_all(
        core::summarize(*out.mh, dataset, config.hdpi_mass), config.cutoffs);
  }
  if (config.use_hmc) {
    {
      Scope s(tracer, "core.hmc", true);
      const Clock::time_point t = Clock::now();
      out.hmc = core::run_hmc(likelihood, prior, config.hmc);
      out.hmc_s = seconds_between(t, Clock::now());
    }
    Scope s(tracer, "core.summary");
    categories = core::highest_all(
        categories,
        core::categorize_all(core::summarize(*out.hmc, dataset, config.hdpi_mass),
                             config.cutoffs));
  }
  Scope s(tracer, "core.summary");
  return core::pinpoint_inconsistent(*out.mh, dataset, std::move(categories),
                                     config.pinpoint_threshold,
                                     config.pinpoint_noise_guard)
      .categories;
}

/// Categories of the paper's inference step on `paths`: the single public
/// call when untraced, its constituents when traced.
std::vector<bc::core::Category> infer(
    const std::vector<bc::labeling::LabeledPath>& paths,
    const std::unordered_set<bc::topology::AsId>& exclude,
    const bc::experiment::InferenceConfig& config, Tracer& tracer,
    bc::labeling::PathDataset& dataset, CoreTrace& core_trace) {
  if (!tracer.on()) {
    bc::experiment::InferenceResult r =
        bc::experiment::run_inference(paths, exclude, config);
    dataset = std::move(r.dataset);
    return std::move(r.categories);
  }
  {
    Scope s(tracer, "labeling.dataset");
    dataset = build_dataset(paths, exclude);
  }
  return traced_inference(dataset, config, tracer, core_trace);
}

struct Quality {
  double precision = 0.0;
  double recall = 0.0;
  double rov_precision = 0.0;
  double rov_recall = 0.0;
};

/// One Table 4 study on an already-run campaign: RFD inference scored
/// against the detectable dampers, the heuristics, and the ROV benchmark.
struct Study {
  std::uint64_t events = 0;
  std::size_t records = 0;
  std::size_t labeled = 0;
  std::vector<bc::core::Category> categories;
  std::vector<bool> heuristic_flags;
  Quality quality;
  bc::labeling::PathDataset dataset;
  CoreTrace core;
};

Study analyse(const bc::experiment::CampaignResult& campaign,
              const bc::experiment::InferenceConfig& inference,
              Tracer& tracer) {
  namespace bx = bc::experiment;
  Study out;
  out.events = campaign.events_executed;
  out.records = campaign.store.size();
  out.labeled = campaign.labeled.size();
  const auto exclude = campaign.site_set();
  const auto truth = campaign.plan.detectable_dampers();

  out.categories = infer(campaign.labeled, exclude, inference, tracer,
                         out.dataset, out.core);
  const bc::core::Evaluation rfd =
      bc::core::evaluate(out.dataset, out.categories, truth);
  out.quality.precision = rfd.matrix.precision();
  out.quality.recall = rfd.matrix.recall();

  std::vector<bc::heuristics::Experiment> experiments;
  for (const auto& b : campaign.beacons)
    experiments.push_back(bc::heuristics::Experiment{b.prefix, b.schedule});
  bc::labeling::PathDataset heuristic_data;
  {
    Scope s(tracer, "labeling.heuristic_dataset");
    for (const auto& p : campaign.labeled)
      heuristic_data.add_path(p.path, p.rfd, exclude);
  }
  {
    Scope s(tracer, "heuristics.run");
    const auto scores = bc::heuristics::run_heuristics(
        heuristic_data, campaign.labeled, campaign.observed, campaign.store,
        experiments);
    out.heuristic_flags = bc::heuristics::heuristic_prediction(
        scores.combined, kHeuristicThreshold);
  }

  // §7: the ROV benchmark uses every observed path, transients included.
  bc::rov::RovBenchmark rov_bench;
  {
    Scope s(tracer, "rov.benchmark");
    std::vector<bc::topology::AsPath> paths;
    for (const auto& p : campaign.observed) paths.push_back(p.path);
    bc::stats::Rng rng(17);
    auto rov_ases = bc::rov::plant_rov_ases(paths, 0.9, 40, rng, 15);
    rov_bench = bc::rov::make_rov_benchmark(paths, std::move(rov_ases));
  }
  Scope s(tracer, "rov.inference");
  const bx::InferenceResult rov = bx::run_inference(rov_bench.dataset, inference);
  const bc::core::Evaluation rov_eval =
      bc::core::evaluate(rov.dataset, rov.categories, rov_bench.rov_ases);
  out.quality.rov_precision = rov_eval.matrix.precision();
  out.quality.rov_recall = rov_eval.matrix.recall();
  return out;
}

/// run_campaign in a span. The path table the result keeps publishes its
/// dedup tallies only when destroyed, so the traced hit ratio adds them to
/// the span's counts (those of the tables the campaign already dropped).
bc::experiment::CampaignResult campaign(Run& run,
                                        const bc::experiment::CampaignConfig& config) {
  const int id = run.tracer.open("experiment.campaign", true);
  bc::experiment::CampaignResult c = bc::experiment::run_campaign(config);
  run.tracer.close(id);
  if (id >= 0) {
    const Span& span = run.tracer.spans()[static_cast<std::size_t>(id)];
    const bc::topology::PathTable& table = c.store.paths();
    const double hits = static_cast<double>(
        run.tracer.count(span, "bgp.paths.dedup_hits") + table.dedup_hits());
    const double misses = static_cast<double>(
        run.tracer.count(span, "bgp.paths.dedup_misses") + table.dedup_misses());
    run.sample("bgp.path_dedup_hit_ratio", hits / (hits + misses));
  }
  return c;
}

/// Same-seed units must reproduce each other exactly.
void check_same_study(Run& run, const Study& a, const Study& b,
                      const std::string& what) {
  run.check(a.events == b.events && a.records == b.records &&
                a.labeled == b.labeled,
            what + ": event/record/labeled counts differ between units");
  run.check(a.categories == b.categories,
            what + ": categories differ between units");
  run.check(a.heuristic_flags == b.heuristic_flags,
            what + ": heuristic flags differ between units");
  run.check(a.quality.precision == b.quality.precision &&
                a.quality.recall == b.quality.recall &&
                a.quality.rov_precision == b.quality.rov_precision &&
                a.quality.rov_recall == b.quality.rov_recall,
            what + ": precision/recall differ between units");
}

void record_quality(Run& run, const Quality& q) {
  run.sample("quality.precision", q.precision);
  run.sample("quality.recall", q.recall);
  run.sample("quality.rov_precision", q.rov_precision);
  run.sample("quality.rov_recall", q.rov_recall);
}

/// Minimum over coordinates of the effective sample size per sampler
/// second (the worst-mixing coordinate bounds every marginal's accuracy).
double min_ess_per_s(const bc::core::Chain& chain, double seconds) {
  double min_ess = static_cast<double>(chain.size());
  for (std::size_t i = 0; i < chain.dim(); ++i)
    min_ess = std::min(min_ess, bc::stats::effective_sample_size(chain.marginal(i)));
  return min_ess / seconds;
}

void record_core(Run& run, const CoreTrace& core) {
  if (core.mh) run.sample("core.mh.min_ess_per_s", min_ess_per_s(*core.mh, core.mh_s));
  if (core.hmc)
    run.sample("core.hmc.min_ess_per_s", min_ess_per_s(*core.hmc, core.hmc_s));
}

// ---- the service -------------------------------------------------------------

/// How a service pass drives the daemon. The mix follows the campaign's own
/// timeline: a tick is `intervals_per_tick` beacon update intervals of
/// simulated time, and replays the records recorded in it (the writes).
/// Every beacon prefix is then queried once (the reads: refresh when it got
/// records, cold on first touch or after a commit, cached otherwise), and a
/// second reader queries every beacon prefix again (cached). A config commit
/// lands in the tick where a Burst begins, so caches go cold once per
/// Burst-Break pair, when an operator would retune between experiments.
struct PassPlan {
  std::size_t intervals_per_tick = 1;
};
/// FNV-1a over an answer's deterministic content.
std::uint64_t fingerprint(const bc::service::QueryResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  mix(&r.epoch, sizeof r.epoch);
  mix(&r.observations, sizeof r.observations);
  for (const auto& s : r.summaries) {
    mix(&s.as, sizeof s.as);
    mix(&s.mean, sizeof s.mean);
    mix(&s.hdpi.lo, sizeof s.hdpi.lo);
    mix(&s.hdpi.hi, sizeof s.hdpi.hi);
  }
  for (const auto c : r.categories) mix(&c, sizeof c);
  return h;
}

using Source = bc::service::QueryResult::Source;

const char* rung_name(Source s) {
  switch (s) {
    case Source::kCached: return "cached";
    case Source::kRefreshed: return "refresh";
    case Source::kCold: return "cold";
  }
  return "?";
}

/// Replay the first half of the campaign's records into a fresh daemon.
std::unique_ptr<bc::service::Daemon> arm_daemon(
    const bc::experiment::CampaignResult& campaign,
    const bc::service::ServiceConfig& config, bc::util::ThreadPool& pool,
    Tracer& tracer) {
  auto daemon = std::make_unique<bc::service::Daemon>(config, &pool);
  daemon->load_campaign(campaign);
  Scope s(tracer, "service.ingest", true);
  daemon->replay(campaign.store, 0, campaign.store.size() / 2);
  return daemon;
}

/// One pass over the second half of the records (see PassPlan). Returns
/// the fingerprints of the per-tick answers, in order; every answer's rung
/// and shape is checked against the script.
std::vector<std::uint64_t> service_pass(
    Run& run, const bc::experiment::CampaignResult& campaign,
    bc::service::Daemon& daemon, const bc::service::ServiceConfig& config,
    const PassPlan& plan) {
  Tracer& tracer = run.tracer;
  const auto& records = campaign.store.all();
  std::vector<bc::bgp::Prefix> beacons;
  for (const auto& b : campaign.beacons) beacons.push_back(b.prefix);
  const bc::beacon::BeaconSchedule& schedule = campaign.beacons.front().schedule;
  const bc::sim::Duration tick_length =
      schedule.update_interval * static_cast<bc::sim::Duration>(plan.intervals_per_tick);
  const std::vector<bc::beacon::Window> bursts = bc::beacon::burst_windows(schedule);
  std::set<bc::bgp::Prefix> built;  // prefixes with a posterior at this config
  std::set<bc::bgp::Prefix> dirty;  // prefixes with records since their last query
  std::vector<std::uint64_t> prints;

  const auto timed_query = [&](const bc::bgp::Prefix& prefix, Source expect) {
    const Clock::time_point t = Clock::now();
    const bc::service::QueryResult r = daemon.query(prefix);
    const double s = seconds_between(t, Clock::now());
    const bool ok =
        r.source == expect && r.categories.size() == r.summaries.size();
    run.check(ok, ok ? std::string() : std::string("service: expected a ") +
                                           rung_name(expect) + " answer, got " +
                                           rung_name(r.source));
    return std::make_pair(r, s);
  };

  std::size_t next = records.size() / 2;
  if (next >= records.size()) return prints;
  // Ticks are aligned to the schedule's start; the first one holds the
  // first record of the second half.
  bc::sim::Time tick_begin =
      schedule.start +
      std::max<bc::sim::Time>(0, records[next].recorded_at - schedule.start) /
          tick_length * tick_length;
  for (bool first = true; next < records.size(); first = false) {
    const bc::sim::Time tick_end = tick_begin + tick_length;
    Scope tick_span(tracer, "service.tick");
    std::size_t count = 0;
    while (next + count < records.size() && records[next + count].recorded_at < tick_end)
      ++count;
    {
      Scope s(tracer, "service.ingest", true);
      daemon.replay(campaign.store, next, count);
    }
    for (std::size_t i = next; i < next + count; ++i) dirty.insert(records[i].update.prefix);
    next += count;
    const bool burst_begins =
        std::any_of(bursts.begin(), bursts.end(), [&](const bc::beacon::Window& w) {
          return w.begin >= tick_begin && w.begin < tick_end;
        });
    tick_begin = tick_end;
    if (burst_begins && !first) {
      Scope s(tracer, "service.commit");
      daemon.stage(config);
      daemon.commit();
      built.clear();
    }
    for (const bc::bgp::Prefix& prefix : beacons) {
      const Source expect = built.count(prefix) == 0 ? Source::kCold
                            : dirty.count(prefix) != 0 ? Source::kRefreshed
                                                       : Source::kCached;
      std::pair<bc::service::QueryResult, double> answer;
      {
        Scope s(tracer, std::string("service.") + rung_name(expect) + "_query");
        answer = timed_query(prefix, expect);
      }
      run.sample(std::string("service.") + rung_name(expect) + "_query_" +
                     (expect == Source::kCached ? "ns" : "ms"),
                 answer.second * (expect == Source::kCached ? 1e9 : 1e3));
      built.insert(prefix);
      dirty.erase(prefix);
      prints.push_back(fingerprint(answer.first));
    }
    Scope s(tracer, "service.cached_burst", true);
    for (const bc::bgp::Prefix& prefix : beacons) {
      const auto answer = timed_query(prefix, Source::kCached);
      run.sample("service.cached_query_ns", answer.second * 1e9);
    }
  }
  return prints;
}

/// save -> restore (into a fresh daemon) -> save must give identical bytes.
void snapshot_round_trip(Run& run, bc::service::Daemon& daemon,
                         const bc::service::ServiceConfig& config,
                         bc::util::ThreadPool& pool) {
  Tracer& tracer = run.tracer;
  std::string first;
  {
    Scope s(tracer, "service.snapshot_save");
    const Clock::time_point t = Clock::now();
    first = daemon.save_snapshot();
    run.sample("service.snapshot_save_ms", seconds_between(t, Clock::now()) * 1e3);
  }
  bc::service::Daemon restored(config, &pool);
  {
    Scope s(tracer, "service.snapshot_restore");
    const Clock::time_point t = Clock::now();
    restored.restore_snapshot(first);
    run.sample("service.snapshot_restore_ms",
               seconds_between(t, Clock::now()) * 1e3);
  }
  run.sample("service.snapshot_bytes", static_cast<double>(first.size()));
  run.check(restored.save_snapshot() == first,
            "service: save -> restore -> save is not byte-identical");
}

// ---- coverage probes -----------------------------------------------------------

/// Topology generation, network construction and static convergence on the
/// workload's own topology config, each called on its own (run_campaign
/// does all three internally and exposes none separately).
void probe_topology(Run& run, const bc::experiment::CampaignConfig& config) {
  Tracer& tracer = run.tracer;
  bc::stats::Rng rng(config.seed);
  bc::topology::AsGraph graph;
  {
    Scope s(tracer, "topology.generate");
    graph = bc::topology::generate(config.topology, rng);
  }
  bc::sim::EventQueue queue;
  bc::stats::Rng net_rng = rng.fork();
  std::optional<bc::bgp::Network> network;
  {
    Scope s(tracer, "bgp.network_build");
    network.emplace(graph, config.network, queue, net_rng);
  }
  std::vector<bc::bgp::StaticOrigin> origins;
  const std::vector<bc::topology::AsId> ases = graph.as_ids();
  for (std::uint32_t k = 0; k < 4; ++k) {
    bc::bgp::StaticOrigin o;
    o.as = ases[rng.index(ases.size())];
    o.prefix = bc::bgp::Prefix{bc::experiment::kBaselinePrefixBase + k, 24};
    origins.push_back(o);
  }
  Scope s(tracer, "bgp.static_converge", true);
  bc::bgp::static_converge(*network, origins);
}

/// Relabel every beacon prefix of a finished campaign; must reproduce the
/// campaign's own labeling.
void probe_labeling(Run& run, const bc::experiment::CampaignResult& campaign) {
  std::size_t labeled = 0;
  {
    Scope s(run.tracer, "labeling.label");
    for (const auto& b : campaign.beacons)
      labeled += bc::labeling::label_paths(campaign.store, b.prefix, b.schedule,
                                           campaign.config.signature)
                     .size();
  }
  run.check(labeled == campaign.labeled.size(),
            "labeling: relabeling does not reproduce the campaign's paths");
  run.sample("labeling.labeled_paths", static_cast<double>(labeled));
  run.sample("collector.records", static_cast<double>(campaign.store.size()));
}

/// Per-evaluation cost of the likelihood and its gradient on a dataset.
void probe_kernels(Run& run, const bc::labeling::PathDataset& dataset,
                   const bc::experiment::InferenceConfig& config) {
  const bc::core::Likelihood likelihood(dataset, config.noise);
  std::vector<double> p(dataset.as_count(), 0.1);
  std::vector<double> grad(dataset.as_count());
  constexpr int kReps = 200;
  double sink = 0.0;
  Clock::time_point t = Clock::now();
  {
    Scope s(run.tracer, "core.loglik");
    for (int i = 0; i < kReps; ++i) {
      p[static_cast<std::size_t>(i) % p.size()] = 0.1 + 1e-6 * i;
      sink += likelihood.log_likelihood(p);
    }
  }
  run.sample("core.loglik_ns", seconds_between(t, Clock::now()) * 1e9 / kReps);
  t = Clock::now();
  {
    Scope s(run.tracer, "core.gradient");
    for (int i = 0; i < kReps; ++i) {
      likelihood.gradient(p, grad);
      sink += grad[static_cast<std::size_t>(i) % grad.size()];
    }
  }
  run.sample("core.gradient_ns", seconds_between(t, Clock::now()) * 1e9 / kReps);
  run.check(std::isfinite(sink), "core: non-finite likelihood or gradient");
}

/// The service rungs on a campaign the workload did not serve: a short pass
/// plus the snapshot round trip.
void probe_service(Run& run, const bc::experiment::CampaignResult& campaign,
                   bool quick) {
  const bc::service::ServiceConfig config = service_config(quick);
  bc::util::ThreadPool pool(kPoolThreads);
  auto daemon = arm_daemon(campaign, config, pool, run.tracer);
  // About eight ticks keep the probe short on any campaign.
  const auto& records = campaign.store.all();
  const bc::sim::Duration span =
      records.back().recorded_at - records[records.size() / 2].recorded_at;
  const bc::sim::Duration interval = campaign.beacons.front().schedule.update_interval;
  service_pass(run, campaign, *daemon, config,
               PassPlan{static_cast<std::size_t>(std::max<bc::sim::Duration>(1, span / (8 * interval)))});
  snapshot_round_trip(run, *daemon, config, pool);
}

/// The paper flow on a campaign the workload's units do not analyse: traced,
/// with the split inference checked against the single untraced call.
void probe_paper_flow(Run& run, const bc::experiment::CampaignResult& campaign,
                      bool quick) {
  const bc::experiment::InferenceConfig inference = study_inference(quick);
  const Study s = analyse(campaign, inference, run.tracer);
  const bc::experiment::InferenceResult single =
      bc::experiment::run_inference(campaign.labeled, campaign.site_set(), inference);
  run.check(single.categories == s.categories,
            "core: the split inference differs from run_inference");
  record_core(run, s.core);
  record_quality(run, s.quality);
  probe_kernels(run, s.dataset, inference);
}

// ---- workloads -----------------------------------------------------------------

/// Wall time of every measured unit, untraced and traced apart.
struct UnitTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// Runs `unit` repeatedly for the run's measuring time (at least
/// `min_units` times, and never starting a unit the remaining time cannot
/// hold at the median pace). In a traced run, odd units are traced.
UnitTimes measure(Run& run, std::size_t min_units,
                  const std::function<void(int)>& unit) {
  UnitTimes times;
  const Clock::time_point start = Clock::now();
  std::vector<double> all;
  for (int u = 0;; ++u) {
    const double elapsed = seconds_between(start, Clock::now());
    if (static_cast<std::size_t>(u) >= min_units &&
        elapsed + median(all) > run.opt.seconds)
      break;
    const bool traced = run.opt.trace && u % 2 == 1;
    run.tracer.set_on(traced);
    run.tracer.set_unit(u);
    const Clock::time_point t = Clock::now();
    {
      Scope root(run.tracer, "unit");
      unit(u);
    }
    const double wall = seconds_between(t, Clock::now());
    run.tracer.set_on(false);
    std::printf("# unit %d %s %.3f s\n", u, traced ? "traced" : "untraced", wall);
    all.push_back(wall);
    (traced ? times.traced : times.untraced).push_back(wall);
  }
  return times;
}

/// Coverage probes run traced under unit id -2, inside one root span.
class Probes {
 public:
  explicit Probes(Run& run) : run_(run) {
    run.tracer.set_on(true);
    run.tracer.set_unit(-2);
    root_ = run.tracer.open("probe", false);
  }
  ~Probes() {
    run_.tracer.close(root_);
    run_.tracer.set_on(false);
  }
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

 private:
  Run& run_;
  int root_;
};

/// A study and the campaign it analysed.
struct StudyRun {
  Study study;
  bc::experiment::CampaignResult campaign;
};

StudyRun run_study(Run& run, const bc::experiment::CampaignConfig& config,
                   const bc::experiment::InferenceConfig& inference) {
  StudyRun r;
  r.campaign = campaign(run, config);
  r.study = analyse(r.campaign, inference, run.tracer);
  return r;
}

/// Two studies at once, one per pool worker. Untraced only: the tracer and
/// the obs snapshots behind its counters are single-threaded.
std::array<StudyRun, 2> run_pair(Run& run, bc::util::ThreadPool& pool,
                                 const std::array<bc::experiment::CampaignConfig, 2>& configs,
                                 const bc::experiment::InferenceConfig& inference) {
  auto a = pool.submit([&] { return run_study(run, configs[0], inference); });
  auto b = pool.submit([&] { return run_study(run, configs[1], inference); });
  return {a.get(), b.get()};
}

double paper_study(Run& run) {
  const bool quick = run.opt.quick;
  const auto inference = study_inference(quick);
  const auto config_of = [&](std::uint64_t seed, std::size_t k) {
    return study_config(input_seed(seed, k), quick);
  };
  std::map<std::size_t, Study> seen;  // the first result on each input
  std::optional<bc::experiment::CampaignResult> first_campaign;  // of input 0
  std::vector<CoreTrace> traced_cores;
  // Every study on an input must reproduce the first one on it.
  const auto keep = [&](std::size_t k, StudyRun& r) {
    run.check(r.study.events > 0 && r.study.labeled > 0, "paper_study: empty campaign");
    const auto it = seen.find(k);
    if (it != seen.end()) {
      check_same_study(run, it->second, r.study, "paper_study");
      return;
    }
    if (k == 0) first_campaign = std::move(r.campaign);
    seen.emplace(k, std::move(r.study));
  };

  UnitTimes times;
  {
    bc::util::ThreadPool pool(kPoolThreads);
    // Set-up: two warm-up studies at once, on fixed inputs.
    const std::array warmups = {config_of(kSetupSeed, 0), config_of(kSetupSeed, 1)};
    std::array<std::optional<Study>, 2> warm;
    for (int i = 0; i < kWarmups; ++i) {
      const Clock::time_point t = Clock::now();
      std::array<StudyRun, 2> pair = run_pair(run, pool, warmups, inference);
      run.sample("setup_s", seconds_between(t, Clock::now()));
      for (std::size_t k = 0; k < 2; ++k) {
        if (warm[k]) check_same_study(run, *warm[k], pair[k].study, "paper_study set-up");
        else warm[k] = std::move(pair[k].study);
      }
    }
    if (!run.opt.trace) {
      // A unit is two studies at once, on two inputs no other unit uses.
      const auto unit_pair = [&](std::size_t u) {
        std::array<StudyRun, 2> pair = run_pair(
            run, pool, {config_of(run.opt.seed, 2 * u), config_of(run.opt.seed, 2 * u + 1)},
            inference);
        keep(2 * u, pair[0]);
        keep(2 * u + 1, pair[1]);
      };
      times = measure(run, 2, [&](int u) { unit_pair(static_cast<std::size_t>(u)); });
      unit_pair(0);  // untimed: the same inputs must give the same results
    }
  }
  if (run.opt.trace) {
    // The tracer and the obs snapshots behind its counter deltas are
    // single-threaded, so a trace run's unit is one study on the driver
    // thread: each input untraced, then traced.
    times = measure(run, 2, [&](int u) {
      const std::size_t k = static_cast<std::size_t>(u / 2);
      StudyRun r = run_study(run, config_of(run.opt.seed, k), inference);
      if (run.tracer.on()) traced_cores.push_back(std::move(r.study.core));
      keep(k, r);
    });
    const Study& own = seen.at(0);
    record_quality(run, own.quality);
    for (const CoreTrace& core : traced_cores) record_core(run, core);
    Probes probes(run);
    probe_topology(run, config_of(run.opt.seed, 0));
    probe_labeling(run, *first_campaign);
    probe_kernels(run, own.dataset, inference);
    probe_service(run, *first_campaign, quick);
  }
  for (double t : times.untraced) run.sample("op_ms", t * 1e3);
  return times.traced.empty() ? 0.0 : median(times.traced) / median(times.untraced);
}

double internet_scale(Run& run) {
  const bool quick = run.opt.quick;
  const std::uint32_t ases = quick ? 3000 : 70000;
  // Set-up: a warm-up campaign at reduced scale, on the fixed set-up input.
  std::optional<std::uint64_t> warm_events;
  for (int i = 0; i < kWarmups; ++i) {
    const Clock::time_point t = Clock::now();
    const auto c =
        bc::experiment::run_campaign(internet_config(quick ? 1000 : 10000, kSetupSeed));
    run.sample("setup_s", seconds_between(t, Clock::now()));
    run.check(!warm_events || *warm_events == c.events_executed,
              "internet_scale set-up: event counts differ between warm-ups");
    warm_events = c.events_executed;
  }

  const auto config = internet_config(ases, run.opt.seed);
  std::optional<bc::experiment::CampaignResult> first;
  const UnitTimes times = measure(run, 2, [&](int) {
    auto c = campaign(run, config);
    run.check(c.events_executed > 0 && !c.labeled.empty(),
              "internet_scale: empty campaign");
    if (first) {
      run.check(c.events_executed == first->events_executed &&
                    c.store.size() == first->store.size() &&
                    c.labeled.size() == first->labeled.size(),
                "internet_scale: event/record/labeled counts differ between units");
    } else {
      first = std::move(c);
    }
  });
  for (double t : times.untraced) run.sample("op_ms", t * 1e3);
  if (run.opt.trace) {
    Probes probes(run);
    probe_topology(run, config);
    probe_labeling(run, *first);
    probe_paper_flow(run, *first, quick);
    probe_service(run, *first, quick);
  }
  return times.traced.empty() ? 0.0 : median(times.traced) / median(times.untraced);
}

double becaused_live(Run& run) {
  const bool quick = run.opt.quick;
  const bc::service::ServiceConfig config = service_config(quick);
  bc::util::ThreadPool pool(kPoolThreads);
  // Set-up: a campaign on the fixed set-up input, loading it and replaying
  // its first half (traced in a trace run: the units run no campaign).
  std::optional<bc::experiment::CampaignResult> reference_campaign;
  for (int i = 0; i < kServiceSetups; ++i) {
    run.tracer.set_on(run.opt.trace);
    run.tracer.set_unit(-10 - i);
    const Clock::time_point t = Clock::now();
    bc::experiment::CampaignResult c;
    {
      Scope root(run.tracer, "setup");
      c = campaign(run, service_campaign_config(kSetupSeed, quick));
      arm_daemon(c, config, pool, run.tracer);
    }
    run.sample("setup_s", seconds_between(t, Clock::now()));
    run.tracer.set_on(false);
    run.check(!reference_campaign ||
                  (reference_campaign->store.size() == c.store.size() &&
                   reference_campaign->events_executed == c.events_executed),
              "becaused_live set-up: campaigns differ between set-ups");
    reference_campaign = std::move(c);
  }
  reference_campaign.reset();
  // The campaigns the passes serve, from --seed.
  std::vector<bc::experiment::CampaignResult> sources;
  for (std::size_t k = 0; k < kServiceCampaigns; ++k)
    sources.push_back(bc::experiment::run_campaign(
        service_campaign_config(input_seed(run.opt.seed, k), quick)));

  const PassPlan plan;
  std::vector<std::optional<std::vector<std::uint64_t>>> reference(kServiceCampaigns);
  std::unique_ptr<bc::service::Daemon> last;
  // A pass serves ~300 refreshed queries, the timed units of op_ms, and a
  // run makes one on each campaign. A trace run makes two on the first, the
  // second traced; --quick makes two on each so that the self-test runs the
  // cross-pass check.
  const std::size_t min_passes =
      run.opt.trace ? 2 : quick ? 2 * kServiceCampaigns : kServiceCampaigns;
  const UnitTimes times = measure(run, min_passes, [&](int u) {
    const std::size_t k = static_cast<std::size_t>(run.opt.trace ? u / 2 : u) % kServiceCampaigns;
    last.reset();  // one daemon alive at a time
    last = arm_daemon(sources[k], config, pool, run.tracer);
    const auto prints = service_pass(run, sources[k], *last, config, plan);
    run.check(!reference[k] || *reference[k] == prints,
              "becaused_live: answers differ between passes");
    if (!reference[k]) reference[k] = prints;
  });
  // The end-to-end metric and the per-layer ones read the same samples.
  for (double ms : run.samples["service.refresh_query_ms"]) run.sample("op_ms", ms);
  if (!run.opt.trace) {
    snapshot_round_trip(run, *last, config, pool);
  } else {
    Probes probes(run);
    snapshot_round_trip(run, *last, config, pool);
    probe_topology(run, service_campaign_config(run.opt.seed, quick));
    probe_labeling(run, sources.front());
    probe_paper_flow(run, sources.front(), quick);
  }
  return times.traced.empty() ? 0.0 : median(times.traced) / median(times.untraced);
}

// ---- per-layer metrics from the spans ------------------------------------------

/// Per-unit sums of f(span) over spans named `name`, one value per unit id
/// that has such spans. Measured units (id >= 0) are preferred; set-up and
/// probe spans are used only when no measured unit made the call.
std::vector<double> per_unit(const Tracer& tracer, const std::string& name,
                             const std::function<double(const Span&)>& f) {
  std::map<int, double> by_unit;
  bool any_measured = false;
  for (const Span& s : tracer.spans())
    if (s.name == name && s.unit >= 0) any_measured = true;
  for (const Span& s : tracer.spans()) {
    if (s.name != name || (any_measured && s.unit < 0)) continue;
    by_unit[s.unit] += f(s);
  }
  std::vector<double> out;
  for (const auto& [unit, v] : by_unit) out.push_back(v);
  return out;
}

/// Element-wise a / b of two aligned per-unit series.
std::vector<double> ratio(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> out;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    if (b[i] > 0.0) out.push_back(a[i] / b[i]);
  return out;
}

struct Row {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order (BENCHMARK.json lists the same).
constexpr std::array kPerLayer = {
    Row{"experiment.campaign_s", "s"},
    Row{"sim.events", "count"},
    Row{"sim.ns_per_event", "ns"},
    Row{"sim.events.bgp_delivery", "count"},
    Row{"sim.events.mrai_timer", "count"},
    Row{"sim.events.rfd_reuse", "count"},
    Row{"sim.events.collector_record", "count"},
    Row{"bgp.updates_received", "count"},
    Row{"bgp.sends_elided", "count"},
    Row{"bgp.adj_rib_memo_hit_ratio", "ratio"},
    Row{"bgp.loc_rib_memo_hit_ratio", "ratio"},
    Row{"bgp.path_dedup_hit_ratio", "ratio"},
    Row{"topology.generate_s", "s"},
    Row{"bgp.network_build_s", "s"},
    Row{"bgp.static_converge_s", "s"},
    Row{"bgp.static.seeded_routes", "count"},
    Row{"collector.records", "count"},
    Row{"labeling.label_s", "s"},
    Row{"labeling.labeled_paths", "count"},
    Row{"labeling.dataset_s", "s"},
    Row{"core.mh_s", "s"},
    Row{"core.hmc_s", "s"},
    Row{"core.mh.ns_per_proposal", "ns"},
    Row{"core.hmc.ns_per_leapfrog", "ns"},
    Row{"core.loglik_ns", "ns"},
    Row{"core.gradient_ns", "ns"},
    Row{"core.summary_s", "s"},
    Row{"core.mh.accept_ratio", "ratio"},
    Row{"core.hmc.accept_ratio", "ratio"},
    Row{"core.hmc.divergences", "count"},
    Row{"core.mh.min_ess_per_s", "1/s"},
    Row{"core.hmc.min_ess_per_s", "1/s"},
    Row{"heuristics.run_s", "s"},
    Row{"rov.benchmark_s", "s"},
    Row{"rov.inference_s", "s"},
    Row{"service.ingest_ns_per_update", "ns"},
    Row{"service.cached_query_ns_p50", "ns"},
    Row{"service.cached_query_ns_p99", "ns"},
    Row{"service.cache_hit_ratio", "ratio"},
    Row{"service.cold_builds", "count"},
    Row{"service.refreshes", "count"},
    Row{"service.cold_query_ms", "ms"},
    Row{"service.refresh_query_p90_ms", "ms"},
    Row{"service.snapshot_save_ms", "ms"},
    Row{"service.snapshot_restore_ms", "ms"},
    Row{"service.snapshot_bytes", "bytes"},
    Row{"quality.precision", "ratio"},
    Row{"quality.recall", "ratio"},
    Row{"quality.rov_precision", "ratio"},
    Row{"quality.rov_recall", "ratio"},
    Row{"self.experiment_s", "s"},
    Row{"self.topology_s", "s"},
    Row{"self.bgp_s", "s"},
    Row{"self.labeling_s", "s"},
    Row{"self.core_s", "s"},
    Row{"self.heuristics_s", "s"},
    Row{"self.rov_s", "s"},
    Row{"self.service_s", "s"},
    Row{"trace.coverage", "ratio"},
    Row{"obs.overhead_ratio", "ratio"},
    Row{"threads.peak", "count"},
};

constexpr std::array kEndToEnd = {
    Row{"setup_s", "s"},
    Row{"peak_rss_mb", "MB"},
    Row{"op_ms", "ms"},
};

/// Per-unit series of every per-layer metric, from spans and samples.
std::map<std::string, std::vector<double>> layer_series(Run& run) {
  Tracer& t = run.tracer;
  std::map<std::string, std::vector<double>> m;
  const auto dur = [](const Span& s) { return s.duration(); };
  const auto counter = [&t](const char* c) {
    return [&t, c](const Span& s) { return static_cast<double>(t.count(s, c)); };
  };
  const auto hit_ratio = [&](const std::string& span, const char* hits,
                             const char* misses) {
    const auto h = per_unit(t, span, counter(hits));
    const auto n = per_unit(t, span, counter(misses));
    std::vector<double> total;
    for (std::size_t i = 0; i < h.size() && i < n.size(); ++i) total.push_back(h[i] + n[i]);
    return ratio(h, total);
  };

  const std::string camp = "experiment.campaign";
  m["experiment.campaign_s"] = per_unit(t, camp, dur);
  const auto events = per_unit(t, camp, [&](const Span& s) {
    double e = 0.0;
    for (const char* k : {"sim.events.closure", "sim.events.bgp_delivery",
                          "sim.events.mrai_timer", "sim.events.rfd_reuse",
                          "sim.events.beacon", "sim.events.collector_record"})
      e += static_cast<double>(t.count(s, k));
    return e;
  });
  m["sim.events"] = events;
  std::vector<double> ns = m["experiment.campaign_s"];
  for (double& v : ns) v *= 1e9;
  m["sim.ns_per_event"] = ratio(ns, events);
  for (const char* k : {"sim.events.bgp_delivery", "sim.events.mrai_timer",
                        "sim.events.rfd_reuse", "sim.events.collector_record",
                        "bgp.updates_received", "bgp.sends_elided"})
    m[k] = per_unit(t, camp, counter(k));
  m["bgp.adj_rib_memo_hit_ratio"] =
      hit_ratio(camp, "bgp.adj_rib_in.memo_hits", "bgp.adj_rib_in.memo_misses");
  m["bgp.loc_rib_memo_hit_ratio"] =
      hit_ratio(camp, "bgp.loc_rib.memo_hits", "bgp.loc_rib.memo_misses");

  m["topology.generate_s"] = per_unit(t, "topology.generate", dur);
  m["bgp.network_build_s"] = per_unit(t, "bgp.network_build", dur);
  m["bgp.static_converge_s"] = per_unit(t, "bgp.static_converge", dur);
  m["bgp.static.seeded_routes"] =
      per_unit(t, "bgp.static_converge", counter("bgp.static.seeded_routes"));
  m["labeling.label_s"] = per_unit(t, "labeling.label", dur);
  m["labeling.dataset_s"] = per_unit(t, "labeling.dataset", dur);

  m["core.mh_s"] = per_unit(t, "core.mh", dur);
  m["core.hmc_s"] = per_unit(t, "core.hmc", dur);
  const auto proposals = per_unit(t, "core.mh", counter("mcmc.mh.proposals"));
  const auto leapfrogs = per_unit(t, "core.hmc", counter("mcmc.hmc.leapfrog_steps"));
  std::vector<double> mh_ns = m["core.mh_s"], hmc_ns = m["core.hmc_s"];
  for (double& v : mh_ns) v *= 1e9;
  for (double& v : hmc_ns) v *= 1e9;
  m["core.mh.ns_per_proposal"] = ratio(mh_ns, proposals);
  m["core.hmc.ns_per_leapfrog"] = ratio(hmc_ns, leapfrogs);
  m["core.summary_s"] = per_unit(t, "core.summary", dur);
  m["core.mh.accept_ratio"] =
      ratio(per_unit(t, "core.mh", counter("mcmc.mh.accepts")), proposals);
  m["core.hmc.accept_ratio"] =
      ratio(per_unit(t, "core.hmc", counter("mcmc.hmc.accepts")),
            per_unit(t, "core.hmc", counter("mcmc.hmc.trajectories")));
  m["core.hmc.divergences"] = per_unit(t, "core.hmc", counter("mcmc.hmc.divergences"));

  m["heuristics.run_s"] = per_unit(t, "heuristics.run", dur);
  m["rov.benchmark_s"] = per_unit(t, "rov.benchmark", dur);
  m["rov.inference_s"] = per_unit(t, "rov.inference", dur);

  std::vector<double> ingest_ns = per_unit(t, "service.ingest", dur);
  for (double& v : ingest_ns) v *= 1e9;
  m["service.ingest_ns_per_update"] =
      ratio(ingest_ns, per_unit(t, "service.ingest", counter("service.ingest.updates")));
  m["service.cache_hit_ratio"] =
      ratio(per_unit(t, "service.cached_burst", counter("service.queries.cache_hits")),
            per_unit(t, "service.cached_burst", counter("service.queries")));
  // Rung counts per pass, from the per-query spans.
  m["service.cold_builds"] =
      per_unit(t, "service.cold_query", [](const Span&) { return 1.0; });
  m["service.refreshes"] =
      per_unit(t, "service.refresh_query", [](const Span&) { return 1.0; });

  // Self time per layer, per unit; the unit's root span is not a layer.
  const std::vector<double> self = t.self_times();
  std::map<int, std::map<std::string, double>> layer_self;
  std::map<int, double> root_self, root_dur;
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    if (s.parent < 0) {
      if (s.unit >= 0) {
        root_self[s.unit] += self[i];
        root_dur[s.unit] += s.duration();
      }
      continue;
    }
    layer_self[s.unit][s.layer()] += self[i];
  }
  for (const char* layer : {"experiment", "topology", "bgp", "labeling", "core",
                            "heuristics", "rov", "service"}) {
    std::vector<double> measured, other;
    for (auto& [unit, by_layer] : layer_self) {
      const auto it = by_layer.find(layer);
      if (it == by_layer.end()) continue;
      (unit >= 0 ? measured : other).push_back(it->second);
    }
    m[std::string("self.") + layer + "_s"] = measured.empty() ? other : measured;
  }
  std::vector<double> coverage;
  for (const auto& [unit, d] : root_dur) coverage.push_back(1.0 - root_self[unit] / d);
  // The worst traced unit: every unit's spans must cover its wall time.
  if (!coverage.empty())
    m["trace.coverage"] = {*std::min_element(coverage.begin(), coverage.end())};

  // Directly measured samples (quantile metrics are derived below).
  for (const auto& [name, v] : run.samples) m[name] = v;
  const auto& cached = run.samples["service.cached_query_ns"];
  m["service.cached_query_ns_p50"] = {quantile(cached, 0.50)};
  m["service.cached_query_ns_p99"] = {quantile(cached, 0.99)};
  m["service.refresh_query_p90_ms"] = {
      quantile(run.samples["service.refresh_query_ms"], 0.90)};
  return m;
}

// ---- output ----------------------------------------------------------------------

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int main_impl(int argc, char** argv) {
  Run run;
  Options& opt = run.opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--quick") opt.quick = true;
    else if (a == "--out") opt.out_dir = value();
    else throw std::invalid_argument("unknown argument " + a);
  }
  // Each workload, and what its op_ms measures.
  const std::map<std::string, std::pair<double (*)(Run&), const char*>> workloads = {
      {"paper_study", {paper_study, "study_s: median wall time of two Table 4 studies at once"}},
      {"internet_scale",
       {internet_scale, "campaign_s: median wall time of one 70k-AS campaign"}},
      {"becaused_live", {becaused_live, "refresh_query_ms: p50 of the refreshed queries"}},
  };
  const auto wl = workloads.find(opt.workload);
  if (wl == workloads.end())
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");

  const char* level = bc::core::kernels::level_name(bc::core::kernels::active_level());
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d quick=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.quick ? 1 : 0);
  std::printf("# host nproc=%ld kernel_level=%s compiler=\"%s\" build_type=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), level, PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  ThreadPeak::start();
  const double overhead = wl->second.first(run);
  ThreadPeak::stop();
  const long threads = ThreadPeak::peak();
  run.check(threads <= kThreadBudget,
            "thread budget: peak " + std::to_string(threads) + " threads > " +
                std::to_string(kThreadBudget));

  MetricMap metrics;
  const auto put = [&](const Row& row, const std::vector<double>& v) {
    Metric m;
    m.unit = row.unit;
    m.samples = v.size();
    m.value = median(v);
    run.check(!v.empty() && std::isfinite(m.value),
              std::string("metric ") + row.name + " was not measured");
    if (!std::isfinite(m.value)) m.value = 0.0;
    metrics[row.name] = m;
  };
  if (!opt.trace) {
    put(kEndToEnd[0], run.samples["setup_s"]);
    put(kEndToEnd[1], {static_cast<double>(status_field("VmHWM")) / 1024.0});
    put(kEndToEnd[2], run.samples["op_ms"]);
  } else {
    auto series = layer_series(run);
    series["obs.overhead_ratio"] = {overhead};
    series["threads.peak"] = {static_cast<double>(threads)};
    for (const Row& row : kPerLayer) put(row, series[row.name]);
  }

  // Human-readable block: every metric with its unit and sample count.
  for (const auto& [name, m] : metrics)
    std::printf("# metric %-34s %16.6f %-6s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  if (!opt.trace) std::printf("# op_ms is %s\n", wl->second.second);
  std::printf("# attempted=%zu failed=%zu threads_peak=%ld\n", run.attempted,
              run.failed, threads);

  // Full record (host, metrics with sample counts) and the spans, kept in
  // memory until now, go to the output directory.
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  if (std::FILE* out = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(out,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"quick\": %d,\n \"host\": {\"nproc\": %ld, \"kernel_level\": "
                 "\"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"},\n"
                 " \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                 opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                 opt.trace ? 1 : 0, opt.quick ? 1 : 0,
                 ::sysconf(_SC_NPROCESSORS_ONLN), level, PERFBENCH_COMPILER,
                 PERFBENCH_BUILD_TYPE, run.attempted, run.failed);
    const char* sep = "\n";
    for (const auto& [name, m] : metrics) {
      std::fprintf(out, "%s  \"%s\": {\"value\": %s, \"unit\": \"%s\", \"samples\": %zu}",
                   sep, name.c_str(), json_number(m.value).c_str(), m.unit.c_str(),
                   m.samples);
      sep = ",\n";
    }
    std::fprintf(out, "\n}}\n");
    std::fclose(out);
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
  }
  if (opt.trace && !run.tracer.write_jsonl(stem + ".spans.jsonl"))
    std::fprintf(stderr, "perfbench: cannot write %s.spans.jsonl\n", stem.c_str());

  std::string line = "{\"correct\": " + std::string(run.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    line += sep;
    line += "\"" + name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
    sep = ", ";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
