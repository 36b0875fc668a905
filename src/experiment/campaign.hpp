// Full measurement campaign: topology -> deployment -> beacons -> collectors
// -> labeled paths (§4).
//
// One run reproduces the paper's setup end to end: beacon sites at most two
// hops from a tier-1 provider, one anchor prefix and one oscillating prefix
// per update interval per site, vantage points feeding the three collector
// projects, and RFD-signature labeling of every observed path.
#pragma once

#include <memory>
#include <vector>

#include "beacon/controller.hpp"
#include "bgp/network.hpp"
#include "collector/update_store.hpp"
#include "experiment/deployment.hpp"
#include "labeling/signature.hpp"
#include "topology/generator.hpp"

namespace because::experiment {

/// How the pre-beacon "converged Internet" baseline is established.
enum class WarmStart : std::uint8_t {
  kNone,     ///< no baseline prefixes; beacons start at t = 0 (legacy)
  kDynamic,  ///< originate baseline prefixes and drain the event cascade
  kStatic,   ///< seed converged RIBs via bgp::static_converge()
};

/// First prefix id used for warm-start baseline prefixes: far above any
/// beacon/anchor/churn prefix, so "prefix.id < kBaselinePrefixBase" isolates
/// the beacon-delta phase when digesting warm-started campaigns.
inline constexpr std::uint32_t kBaselinePrefixBase = 1'000'000;

struct WarmStartConfig {
  WarmStart mode = WarmStart::kNone;
  /// Baseline prefixes, each announced once by a random non-site AS and
  /// fully converged before the beacon phase begins.
  std::size_t baseline_prefixes = 4;
  /// Beacon/anchor/churn/reset schedules shift to this time when a warm
  /// start is active, leaving room for dynamic convergence to drain;
  /// kDynamic BECAUSE_CHECKs convergence actually finished by then.
  sim::Duration horizon = sim::hours(6);
};

struct CampaignConfig {
  topology::GeneratorConfig topology;
  bgp::NetworkConfig network;
  DeploymentConfig deployment;

  std::size_t beacon_sites = 7;
  /// Oscillating /24 prefixes per site: one per interval, repeated
  /// `prefixes_per_interval` times (independent experiments sharpen the
  /// posterior, like the paper's three prefixes per site).
  std::vector<sim::Duration> update_intervals = {sim::minutes(1)};
  std::size_t prefixes_per_interval = 1;
  /// Prefix length of the beacon/anchor prefixes (the paper uses /24;
  /// varying it probes length-scoped RFD configurations, §2.1).
  std::uint8_t beacon_prefix_length = 24;
  sim::Duration burst_length = sim::hours(1);
  sim::Duration break_length = sim::hours(2);
  std::size_t pairs = 6;

  bool include_anchor = true;
  sim::Duration anchor_period = sim::hours(2);
  std::size_t anchor_cycles = 4;
  /// Also deploy a second anchor per site as the "RIPE beacon" reference
  /// set for the Figure 8 comparison.
  bool include_ripe_reference = true;

  std::size_t vantage_points = 30;
  /// Probability that a vantage-point AS additionally feeds a second
  /// collector project (real ASs often peer with RIS *and* RouteViews);
  /// this produces the Figure 7 overlap.
  double second_project_prob = 0.35;
  double missing_aggregator_prob = 0.01;
  /// Failure injection: this many BGP session resets at random links and
  /// random times during the campaign ("unexpected infrastructure failures
  /// such as session resets", which the 90% pair rule must absorb).
  std::size_t session_resets = 0;
  /// Probability that a directed session applies 1-2 hops of AS-path
  /// prepending (traffic engineering; the labeling strips it per §4.2).
  double prepending_prob = 0.05;

  /// Background Internet churn: unrelated prefixes flapping on independent
  /// random schedules (Appendix A: the beacons caused only ~0.5% of all
  /// control-plane updates, and some ordinary prefixes individually flapped
  /// 3-17x more than any beacon). Most background prefixes are quiet; a
  /// heavy tail flaps hard. 0 disables churn.
  std::size_t background_prefixes = 0;

  /// Converged-baseline warm start (none by default; kNone is byte-identical
  /// to the pre-warm-start campaign, RNG stream included).
  WarmStartConfig warm_start;

  labeling::SignatureConfig signature;
  std::uint64_t seed = 42;

  /// Space-parallel execution (sim/sharded_engine.hpp): partition the AS
  /// graph into this many shards (clamped to the AS count; 0 is rejected)
  /// and run them on parallel workers with conservative synchronization.
  /// One shard runs on a single queue with no rounds. Results are
  /// bit-identical at every shard count: MRAI jitter draws from per-session
  /// hash streams and aggregator noise from per-VP lanes, so randomness is a
  /// function of identity, not of event interleaving.
  std::uint32_t shards = 1;
  /// Test hook: run the round capture/merge protocol even with one shard.
  bool force_rounds = false;

  /// Small, fast configuration for unit tests (seconds, not minutes, of
  /// wall time).
  static CampaignConfig small();
  /// The default "paper-scale" configuration used by the benches.
  static CampaignConfig paper();
  /// §4.3's March 2020 campaign, scaled: update intervals 1/2/3 min
  /// (2 min triggers the RFC 7454 recommendation), long Breaks "to account
  /// for very slowly decaying RFD penalties".
  static CampaignConfig march2020();
  /// §4.3's April 2020 campaign, scaled: update intervals 5/10/15 min (to
  /// catch deprecated vendor defaults), Breaks shortened to 2 h because no
  /// suppression outlasted the 1 h default max-suppress-time in March.
  static CampaignConfig april2020();
};

struct BeaconDeployment {
  topology::AsId site = 0;
  std::size_t site_index = 0;
  bgp::Prefix prefix;
  sim::Duration update_interval = 0;
  beacon::BeaconSchedule schedule;
};

struct AnchorDeployment {
  topology::AsId site = 0;
  std::size_t site_index = 0;
  bgp::Prefix prefix;
  beacon::AnchorSchedule schedule;
  bool ripe_reference = false;
};

struct CampaignResult {
  CampaignConfig config;
  topology::AsGraph graph;          ///< includes the added beacon-site ASs
  DeploymentPlan plan;
  std::vector<topology::AsId> sites;
  std::vector<BeaconDeployment> beacons;
  std::vector<AnchorDeployment> anchors;
  /// Background churn prefixes (empty unless configured).
  std::vector<bgp::Prefix> background;
  /// Warm-start baseline prefixes (empty unless warm_start.mode != kNone);
  /// ids start at kBaselinePrefixBase.
  std::vector<bgp::Prefix> baseline;
  collector::UpdateStore store;
  std::vector<collector::VpId> vps;
  /// Labeled steady-state paths of every oscillating beacon prefix.
  std::vector<labeling::LabeledPath> labeled;
  /// Every distinct observed path per (vp, prefix), including transient
  /// path-hunting alternatives (input to heuristic M2).
  std::vector<labeling::ObservedPath> observed;
  std::uint64_t events_executed = 0;

  /// Labeled paths restricted to one update interval.
  std::vector<labeling::LabeledPath> labeled_for_interval(
      sim::Duration interval) const;

  /// The beacon-site AS set (excluded from inference; beacons do not damp).
  std::unordered_set<topology::AsId> site_set() const;
};

CampaignResult run_campaign(const CampaignConfig& config);

}  // namespace because::experiment
