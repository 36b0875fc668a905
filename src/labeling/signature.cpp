#include "labeling/signature.hpp"

#include <algorithm>
#include <unordered_set>

namespace because::labeling {

namespace {

struct Announcement {
  sim::Time recorded_at;
  topology::PathId path;  // cleaned, interned
};

/// Last beacon send time within each burst window.
std::vector<sim::Time> burst_last_event_times(const beacon::BeaconSchedule& schedule) {
  const auto events = beacon::expand(schedule);
  std::vector<sim::Time> out;
  for (const beacon::Window& burst : beacon::burst_windows(schedule)) {
    sim::Time last = burst.begin;
    for (const beacon::BeaconEvent& e : events)
      if (e.when >= burst.begin && e.when < burst.end) last = std::max(last, e.when);
    out.push_back(last);
  }
  return out;
}

/// Memoized clean_path over interned ids: strip prepending, drop loops.
/// Since PathId equality is content equality, the per-raw-id cache turns the
/// per-record cleaning cost into one hash probe after the first sighting.
class CleanCache {
 public:
  explicit CleanCache(topology::PathTable& paths) : paths_(paths) {}

  /// Cleaned id, or kEmptyPath when the measurement is invalid (empty or
  /// still looped after cleaning).
  topology::PathId clean(topology::PathId raw) {
    if (raw == topology::kEmptyPath) return topology::kEmptyPath;
    const auto it = cache_.find(raw);
    if (it != cache_.end()) return it->second;
    topology::PathId cleaned = paths_.strip_prepending(raw);
    if (paths_.has_loop(cleaned)) cleaned = topology::kEmptyPath;
    cache_.emplace(raw, cleaned);
    return cleaned;
  }

 private:
  topology::PathTable& paths_;
  std::unordered_map<topology::PathId, topology::PathId> cache_;
};

}  // namespace

std::vector<const LabeledPath*> distinct_measurements(
    const std::vector<LabeledPath>& labeled) {
  const auto hash = [](const LabeledPath* p) {
    return PathHash{}(p->path) ^ (std::size_t{p->prefix.id} << 1 | p->rfd);
  };
  const auto same = [](const LabeledPath* a, const LabeledPath* b) {
    return a->prefix.id == b->prefix.id && a->rfd == b->rfd &&
           a->path == b->path;
  };
  std::unordered_set<const LabeledPath*, decltype(hash), decltype(same)> seen(
      labeled.size(), hash, same);
  std::vector<const LabeledPath*> out;
  for (const LabeledPath& p : labeled)
    if (seen.insert(&p).second) out.push_back(&p);
  return out;
}

std::vector<LabeledPath> label_paths(const collector::UpdateStore& store,
                                     const bgp::Prefix& prefix,
                                     const beacon::BeaconSchedule& schedule,
                                     const SignatureConfig& config) {
  const auto bursts = beacon::burst_windows(schedule);
  const auto breaks = beacon::break_windows(schedule);
  const auto last_events = burst_last_event_times(schedule);

  std::vector<LabeledPath> out;
  CleanCache cleaner(store.paths());

  for (const collector::VpInfo& vp : store.vantage_points()) {
    const auto records = store.for_vp_prefix(vp.id, prefix);
    if (records.empty()) continue;

    // Cleaned announcements in time order; withdrawals only matter insofar
    // as the *last announcement* defines the VP's current best path.
    std::vector<Announcement> announcements;
    announcements.reserve(records.size());
    for (const collector::RecordedUpdate& r : records) {
      if (!r.update.is_announcement()) continue;
      const topology::PathId cleaned = cleaner.clean(r.update.path);
      if (cleaned == topology::kEmptyPath) continue;  // looped/empty: invalid
      announcements.push_back(Announcement{r.recorded_at, cleaned});
    }
    if (announcements.empty()) continue;

    // Per steady-state path measurements, in first-seen order.
    std::unordered_map<topology::PathId, LabeledPath> per_path;
    std::vector<topology::PathId> order;

    for (std::size_t k = 0; k < bursts.size(); ++k) {
      // The path under test: the VP's best path entering burst k.
      topology::PathId current = topology::kEmptyPath;
      for (const Announcement& a : announcements) {
        if (a.recorded_at > bursts[k].begin) break;
        current = a.path;
      }
      if (current == topology::kEmptyPath) continue;  // unknown before burst

      auto it = per_path.find(current);
      if (it == per_path.end()) {
        LabeledPath fresh;
        fresh.vp = vp.id;
        fresh.prefix = prefix;
        fresh.path = store.paths().to_path(current);
        it = per_path.emplace(current, std::move(fresh)).first;
        order.push_back(current);
      }
      LabeledPath& labeled = it->second;
      ++labeled.relevant_pairs;

      // Re-advertisement: first announcement of the same path in the Break,
      // past the minimum propagation time.
      const sim::Time window_open = last_events[k] + config.min_rdelta;
      const sim::Time window_close = breaks[k].end;
      for (const Announcement& a : announcements) {
        if (a.recorded_at <= window_open) continue;
        if (a.recorded_at > window_close) break;
        if (a.path != current) continue;
        ++labeled.matching_pairs;
        labeled.rdeltas_minutes.push_back(
            sim::to_minutes(a.recorded_at - last_events[k]));
        break;
      }
    }

    for (const topology::PathId path : order) {
      LabeledPath labeled = std::move(per_path[path]);
      const double fraction = static_cast<double>(labeled.matching_pairs) /
                              static_cast<double>(labeled.relevant_pairs);
      labeled.rfd = fraction >= config.pair_match_fraction;
      if (!labeled.rdeltas_minutes.empty()) {
        double sum = 0.0;
        for (double d : labeled.rdeltas_minutes) sum += d;
        labeled.mean_rdelta_minutes =
            sum / static_cast<double>(labeled.rdeltas_minutes.size());
      }
      out.push_back(std::move(labeled));
    }
  }
  return out;
}

std::vector<ObservedPath> observed_paths(const collector::UpdateStore& store,
                                         const bgp::Prefix& prefix) {
  std::vector<ObservedPath> out;
  CleanCache cleaner(store.paths());
  for (const collector::VpInfo& vp : store.vantage_points()) {
    std::unordered_set<topology::PathId> seen;
    for (const collector::RecordedUpdate& r : store.for_vp_prefix(vp.id, prefix)) {
      if (!r.update.is_announcement()) continue;
      const topology::PathId cleaned = cleaner.clean(r.update.path);
      if (cleaned == topology::kEmptyPath) continue;
      if (seen.insert(cleaned).second)
        out.push_back(ObservedPath{vp.id, prefix, store.paths().to_path(cleaned)});
    }
  }
  return out;
}

}  // namespace because::labeling
