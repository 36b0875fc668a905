// RFD signature detection (§4.2).
//
// For each (vantage point, beacon prefix) update stream, each Burst-Break
// pair tests the vantage point's *steady-state path entering the burst*
// (its current best path at burst start: the last announcement before the
// burst begins). That path shows the RFD signature for the pair when a
// re-advertisement for it arrives during the Break with a delay after the
// final Burst update (r-delta) exceeding the minimum propagation time of
// 5 minutes. A path is labeled RFD when at least 90% of its relevant pairs
// match (robustness against session resets and other noise).
//
// Testing only the steady-state path is what makes the labels clean:
// transient paths revealed by path hunting *during* a burst never receive a
// re-advertisement at this vantage point, and counting them as non-RFD
// measurements would poison the tomography input (those paths often do
// contain the damping AS). Transient paths are still exported via
// observed_paths() for the alternative-path heuristic M2.
#pragma once

#include <unordered_map>
#include <vector>

#include "beacon/schedule.hpp"
#include "collector/update_store.hpp"
#include "labeling/path_key.hpp"

namespace because::labeling {

struct SignatureConfig {
  /// Minimum r-delta distinguishing damping releases from ordinary
  /// propagation + MRAI delays ("setting the minimum propagation time for
  /// the re-advertisements to 5 minutes clearly separates the signals").
  sim::Duration min_rdelta = sim::minutes(5);
  /// Fraction of relevant Burst-Break pairs that must match.
  double pair_match_fraction = 0.9;
  /// Slack after the nominal burst end within which updates still count as
  /// burst traffic (propagation + collector export delay).
  sim::Duration burst_slack = sim::minutes(2);
};

/// One labeled path measurement: the unit fed into the tomography problem.
struct LabeledPath {
  collector::VpId vp = 0;
  bgp::Prefix prefix;
  topology::AsPath path;  ///< cleaned, VP first, origin last
  bool rfd = false;
  std::size_t relevant_pairs = 0;
  std::size_t matching_pairs = 0;
  /// Mean r-delta over matching pairs (minutes); 0 when none matched.
  double mean_rdelta_minutes = 0.0;
  /// r-delta of every matching pair (minutes) - Figure 13 raw data.
  std::vector<double> rdeltas_minutes;
};

/// Label every steady-state path observed for `prefix` across all VPs in
/// `store`. `schedule` must be the schedule the prefix was deployed with.
std::vector<LabeledPath> label_paths(const collector::UpdateStore& store,
                                     const bgp::Prefix& prefix,
                                     const beacon::BeaconSchedule& schedule,
                                     const SignatureConfig& config = {});

/// The measurements to count, in first-seen order: the first of each
/// distinct (prefix, label, path) in `labeled`. An AS feeding two collector
/// projects exports the same stream twice, and counting it twice would
/// double-weight perfectly correlated evidence; distinct prefixes remain
/// distinct measurements (independent experiments). The pointers address
/// `labeled`'s elements. The order is the dataset's CSR order, part of the
/// becaused snapshot contract.
std::vector<const LabeledPath*> distinct_measurements(
    const std::vector<LabeledPath>& labeled);

/// Every distinct cleaned path observed for `prefix`, per vantage point --
/// including transient path-hunting alternatives that label_paths()
/// deliberately excludes. Input to heuristic M2 (§5.2.2).
struct ObservedPath {
  collector::VpId vp = 0;
  bgp::Prefix prefix;
  topology::AsPath path;
};
std::vector<ObservedPath> observed_paths(const collector::UpdateStore& store,
                                         const bgp::Prefix& prefix);

}  // namespace because::labeling
