// Figure 5: the Beacon pattern and the resulting RFD signature at a vantage
// point - on an RFD path the Burst is damped away and a delayed
// re-advertisement (r-delta > 5 min) appears in the Break; a non-RFD path
// just mirrors the Beacon events.
#include <cstdio>

#include "beacon/controller.hpp"
#include "collector/vantage_point.hpp"
#include "labeling/signature.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace because;

  // Topology: beacon site 1 under transit 2; two VP branches:
  //   damped branch: 2 -> 3 (AS 3 damps) -> VP 4
  //   clean branch:  2 -> 5 -> VP 6
  topology::AsGraph graph;
  graph.add_as(1, topology::Tier::kStub);
  graph.add_as(2, topology::Tier::kTier1);
  graph.add_as(3, topology::Tier::kTransit);
  graph.add_as(4, topology::Tier::kStub);
  graph.add_as(5, topology::Tier::kTransit);
  graph.add_as(6, topology::Tier::kStub);
  graph.add_provider_customer(2, 1);
  graph.add_provider_customer(2, 3);
  graph.add_provider_customer(3, 4);
  graph.add_provider_customer(2, 5);
  graph.add_provider_customer(5, 6);

  sim::EventQueue queue;
  stats::Rng rng(1);
  bgp::Network network(graph, bgp::NetworkConfig{}, queue, rng);
  bgp::DampingRule rule;
  rule.params = rfd::cisco_defaults();
  network.router(3).add_damping_rule(rule);

  collector::UpdateStore store(network.paths());
  for (topology::AsId vp : {4u, 6u}) {
    collector::VantagePointConfig config;
    config.as = vp;
    config.project = collector::Project::kIsolario;
    collector::attach_vantage_point(network, {&store, 1}, config, rng, rng);
  }

  beacon::Controller controller(network);
  const bgp::Prefix prefix{1, 24};
  beacon::BeaconSchedule schedule;
  schedule.update_interval = sim::minutes(1);
  schedule.burst_length = sim::minutes(30);
  schedule.break_length = sim::hours(2);
  schedule.pairs = 2;
  controller.deploy(1, prefix, schedule);
  queue.run();

  // Print the per-VP update streams around the first Burst-Break pair.
  const auto burst = beacon::burst_windows(schedule)[0];
  const auto brk = beacon::break_windows(schedule)[0];
  for (const collector::VpInfo& vp : store.vantage_points()) {
    const bool damped_branch = vp.as == 4;
    std::printf("\n== vantage point AS %u (%s path) ==\n", vp.as,
                damped_branch ? "RFD" : "non-RFD");
    util::Table table({"t (min)", "update", "path"});
    for (const auto& r : store.for_vp_prefix(vp.id, prefix)) {
      if (r.recorded_at < burst.begin || r.recorded_at > brk.end) continue;
      table.add_row({util::fmt_double(sim::to_minutes(r.recorded_at), 1),
                     r.update.is_announcement() ? "A" : "W",
                     labeling::path_to_string(
                         store.paths().to_path(r.update.path))});
    }
    std::printf("%s", table.render().c_str());
  }

  // And the resulting labels with r-delta.
  std::printf("\n== signature labels ==\n");
  util::Table labels({"path", "label", "pairs matched", "mean r-delta (min)"});
  for (const auto& l : labeling::label_paths(store, prefix, schedule)) {
    labels.add_row({labeling::path_to_string(l.path),
                    l.rfd ? "RFD" : "non-RFD",
                    std::to_string(l.matching_pairs) + "/" +
                        std::to_string(l.relevant_pairs),
                    util::fmt_double(l.mean_rdelta_minutes, 1)});
  }
  std::printf("%s", labels.render().c_str());
  return 0;
}
