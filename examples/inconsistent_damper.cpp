// The AS 701 story (§5.1 / Figure 9c): an AS that damps one neighbor
// session but not another. Most of its paths are clean (they enter via the
// exempt session), so its marginal posterior looks like a *non*-damper; the
// binary/SAT view of the data is outright contradictory; and only the Eq. 8
// pinpointing step recovers it.
//
//   $ ./example_inconsistent_damper
#include <cstdio>

#include "baselines/binary_sat.hpp"
#include "beacon/controller.hpp"
#include "bgp/network.hpp"
#include "collector/vantage_point.hpp"
#include "experiment/pipeline.hpp"
#include "labeling/signature.hpp"
#include "util/strings.hpp"

int main() {
  using namespace because;

  // Three beacon sites: site 1 under tier-1 AS 2, site 5 under tier-1 AS 3,
  // site 6 under transit AS 750. AS 701 buys transit from both tier-1s and
  // damps the session towards 2 (a historically noisy neighbor) while
  // exempting 3. Prefixes from site 1 reach 701 via 2 (shortest) and get
  // damped; prefixes from site 5 reach it via 3 and flow clean. The VP
  // stubs 800..804 are dual-homed to 701 and 750, so site 6's prefixes give
  // them clean paths that avoid 701 entirely (the abundant clean evidence
  // real collector peers have). VPs 900/901 are controls under the tier-1s.
  topology::AsGraph graph;
  graph.add_as(1, topology::Tier::kStub);
  graph.add_as(5, topology::Tier::kStub);
  graph.add_as(6, topology::Tier::kStub);
  graph.add_as(2, topology::Tier::kTier1);
  graph.add_as(3, topology::Tier::kTier1);
  graph.add_as(701, topology::Tier::kTransit);
  graph.add_as(750, topology::Tier::kTransit);
  graph.add_peering(2, 3);
  graph.add_provider_customer(2, 1);
  graph.add_provider_customer(3, 5);
  graph.add_provider_customer(2, 701);
  graph.add_provider_customer(3, 701);
  graph.add_provider_customer(3, 750);
  graph.add_provider_customer(750, 6);
  for (topology::AsId vp = 800; vp <= 804; ++vp) {
    graph.add_as(vp, topology::Tier::kStub);
    graph.add_provider_customer(701, vp);
    graph.add_provider_customer(750, vp);
  }
  graph.add_as(900, topology::Tier::kStub);
  graph.add_provider_customer(3, 900);
  // Several control VPs under tier-1 AS 2: a real tier-1 carries abundant
  // clean evidence, which is what rules it out on the damped paths.
  for (topology::AsId vp = 901; vp <= 905; ++vp) {
    graph.add_as(vp, topology::Tier::kStub);
    graph.add_provider_customer(2, vp);
  }

  sim::EventQueue queue;
  stats::Rng rng(7);
  bgp::Network network(graph, bgp::NetworkConfig{}, queue, rng);

  bgp::DampingRule rule;
  rule.params = rfd::cisco_defaults();
  rule.exempt_neighbors = {3};  // the heterogeneous configuration
  network.router(701).add_damping_rule(rule);

  collector::UpdateStore store(network.paths());
  for (topology::AsId vp : {800u, 801u, 802u, 803u, 804u, 900u, 901u, 902u,
                            903u, 904u, 905u}) {
    collector::VantagePointConfig config;
    config.as = vp;
    config.project = collector::Project::kIsolario;
    collector::attach_vantage_point(network, {&store, 1}, config, rng, rng);
  }

  // Independent 1 min beacon prefixes: 2 from site 1 (damped at 701),
  // 4 from site 5 (clean at 701) - the paper's "majority of labeled paths
  // via the exempt neighbor".
  beacon::Controller controller(network);
  std::vector<std::pair<bgp::Prefix, beacon::BeaconSchedule>> experiments;
  std::uint32_t next_prefix = 1;
  auto deploy = [&](topology::AsId site, int count) {
    for (int k = 0; k < count; ++k) {
      beacon::BeaconSchedule schedule;
      schedule.update_interval = sim::minutes(1);
      schedule.burst_length = sim::minutes(30);
      schedule.break_length = sim::hours(2);
      schedule.pairs = 3;
      schedule.start = static_cast<sim::Time>(next_prefix) * sim::seconds(5);
      const bgp::Prefix prefix{next_prefix++, 24};
      controller.deploy(site, prefix, schedule);
      experiments.emplace_back(prefix, schedule);
    }
  };
  deploy(1, 2);  // damped at 701 (arrive via the damped session to 2)
  deploy(5, 2);  // clean at 701 (arrive via the exempt session to 3)
  deploy(6, 10); // clean and avoiding 701 entirely (pins the VPs)
  queue.run();

  std::vector<labeling::LabeledPath> labeled;
  for (const auto& [prefix, schedule] : experiments) {
    auto paths = labeling::label_paths(store, prefix, schedule);
    labeled.insert(labeled.end(), paths.begin(), paths.end());
  }
  std::size_t rfd_paths = 0, rfd_via_701 = 0, clean_via_701 = 0;
  for (const auto& p : labeled) {
    if (p.rfd) ++rfd_paths;
    for (topology::AsId as : p.path) {
      if (as != 701) continue;
      if (p.rfd) ++rfd_via_701;
      else ++clean_via_701;
    }
  }
  std::printf("%zu labeled paths, %zu RFD\n", labeled.size(), rfd_paths);
  std::printf("AS 701 appears on %zu RFD and %zu clean paths "
              "(the contradictory evidence)\n", rfd_via_701, clean_via_701);

  // The SAT view: contradictory.
  labeling::PathDataset sat_data;
  for (const auto& p : labeled) sat_data.add_path(p.path, p.rfd, {1, 5, 6});
  const auto sat = baselines::solve_binary_tomography(sat_data);
  std::printf("binary (SAT) tomography satisfiable: %s (%zu conflicting paths)\n",
              sat.satisfiable ? "yes" : "NO", sat.conflicting_paths.size());

  // BeCAUSe: the marginal looks clean-ish, the pinpointing step flags it.
  auto config = experiment::InferenceConfig::fast();
  config.mh.samples = 1500;
  config.mh.burn_in = 700;
  const auto result = experiment::run_inference(labeled, {1, 5, 6}, config);

  const auto node = result.dataset.index_of(701);
  if (node.has_value()) {
    const auto& s = result.mh_summaries[*node];
    std::printf("\nAS 701 marginal: mean %.2f, 95%% HDPI [%.2f, %.2f]\n",
                s.mean, s.hdpi.lo, s.hdpi.hi);
    std::printf("category before pinpointing: %s\n",
                core::to_string(result.base_categories[*node]).c_str());
    std::printf("category after pinpointing:  %s\n",
                core::to_string(result.categories[*node]).c_str());
  }
  std::printf("\npinpointing upgraded %zu AS(s):", result.upgraded.size());
  for (topology::AsId as : result.upgraded) std::printf(" %u", as);
  std::printf("\n(the heuristics cannot express 'damps some neighbors only';\n"
              " SAT has zero solutions; BeCAUSe reports it as category 4)\n");
  return 0;
}
