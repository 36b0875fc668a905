#include "bgp/router.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace because::bgp {

bool DampingRule::matches(topology::Relation neighbor_relation,
                          topology::AsId neighbor, const Prefix& prefix) const {
  if (relation_scope.has_value() && *relation_scope != neighbor_relation)
    return false;
  if (std::find(exempt_neighbors.begin(), exempt_neighbors.end(), neighbor) !=
      exempt_neighbors.end())
    return false;
  if (!only_neighbors.empty() &&
      std::find(only_neighbors.begin(), only_neighbors.end(), neighbor) ==
          only_neighbors.end())
    return false;
  return prefix.length >= min_prefix_length && prefix.length <= max_prefix_length;
}

Router::Router(topology::AsId id, sim::EventQueue& queue,
               topology::PathTable& paths)
    : id_(id), queue_(queue), paths_(&paths) {}

Router::~Router() {
  if (!obs::enabled()) return;
  obs::add(obs::Counter::kBgpUpdatesReceived, updates_received_);
  obs::add(obs::Counter::kAdjRibMemoHits, adj_rib_in_.memo_hits());
  obs::add(obs::Counter::kAdjRibMemoMisses, adj_rib_in_.memo_misses());
  obs::add(obs::Counter::kLocRibMemoHits, loc_rib_.memo_hits());
  obs::add(obs::Counter::kLocRibMemoMisses, loc_rib_.memo_misses());
}

Router::NeighborEntry* Router::find_neighbor(topology::AsId id) {
  const auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborEntry& e, topology::AsId key) { return e.id < key; });
  return it != neighbors_.end() && it->id == id ? &*it : nullptr;
}

const Router::NeighborEntry* Router::find_neighbor(topology::AsId id) const {
  const auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborEntry& e, topology::AsId key) { return e.id < key; });
  return it != neighbors_.end() && it->id == id ? &*it : nullptr;
}

void Router::connect(topology::AsId neighbor, topology::Relation relation,
                     sim::Duration mrai, bool mrai_on_withdrawals,
                     Session::SendFn deliver, double jitter,
                     std::uint64_t jitter_key) {
  if (neighbor == id_) throw std::invalid_argument("Router: self session");
  const auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), neighbor,
      [](const NeighborEntry& e, topology::AsId key) { return e.id < key; });
  if (it != neighbors_.end() && it->id == neighbor)
    throw std::invalid_argument("Router: duplicate session");
  NeighborEntry entry;
  entry.id = neighbor;
  entry.relation = relation;
  entry.session = std::make_unique<Session>(
      id_, neighbor, relation, mrai, mrai_on_withdrawals, std::move(deliver),
      jitter, jitter_key);
  neighbors_.insert(it, std::move(entry));
  adj_rib_in_.add_neighbor(neighbor);
}

void Router::add_damping_rule(DampingRule rule) {
  rule.params.validate();
  damping_rules_.push_back(std::move(rule));
}

void Router::add_rov_invalid(const Prefix& prefix) {
  rov_invalid_.insert(prefix);
}

bool Router::rov_filters(const Prefix& prefix) const {
  return rov_invalid_.count(prefix) != 0;
}

void Router::set_export_prepending(topology::AsId neighbor, std::size_t extra) {
  if (find_neighbor(neighbor) == nullptr)
    throw std::invalid_argument("Router: prepending for unknown neighbor");
  if (extra == 0) export_prepending_.erase(neighbor);
  else export_prepending_[neighbor] = extra;
}

void Router::attach_export_tap(ExportTap tap) {
  if (!tap) throw std::invalid_argument("Router: null export tap");
  // Replay the current table so late-attaching collectors get a full feed.
  loc_rib_.prefixes(prefix_scratch_);
  for (const Prefix& prefix : prefix_scratch_)
    tap(desired_update_for(prefix, loc_rib_.find(prefix)));
  export_taps_.push_back(std::move(tap));
}

rfd::Damper* Router::damper_for(topology::AsId from, const Prefix& prefix) {
  if (damping_rules_.empty()) return nullptr;  // most routers do not damp
  const NeighborEntry* nb = find_neighbor(from);
  if (nb == nullptr) return nullptr;
  for (std::size_t r = 0; r < damping_rules_.size(); ++r) {
    const DampingRule& rule = damping_rules_[r];
    if (!rule.matches(nb->relation, from, prefix)) continue;
    const DamperKey key = damper_key(from, r);
    auto it = dampers_.find(key);
    if (it == dampers_.end())
      it = dampers_.emplace(key, rfd::Damper(rule.params)).first;
    return &it->second;
  }
  return nullptr;
}

const rfd::Damper* Router::damper_for(topology::AsId from,
                                      const Prefix& prefix) const {
  if (damping_rules_.empty()) return nullptr;
  const NeighborEntry* nb = find_neighbor(from);
  if (nb == nullptr) return nullptr;
  for (std::size_t r = 0; r < damping_rules_.size(); ++r) {
    if (!damping_rules_[r].matches(nb->relation, from, prefix)) continue;
    const auto it = dampers_.find(damper_key(from, r));
    return it == dampers_.end() ? nullptr : &it->second;
  }
  return nullptr;
}

void Router::originate(const Prefix& prefix, sim::Time beacon_timestamp) {
  originated_[prefix] = Route{prefix, topology::kEmptyPath, beacon_timestamp};
  run_decision(prefix);
}

void Router::withdraw_origin(const Prefix& prefix) {
  if (originated_.erase(prefix) == 0) return;
  run_decision(prefix);
}

void Router::seed_origin(const Prefix& prefix, sim::Time beacon_timestamp) {
  originated_[prefix] = Route{prefix, topology::kEmptyPath, beacon_timestamp};
}

void Router::seed_adj_route(topology::AsId from, const Route& route) {
  BECAUSE_CHECK(find_neighbor(from) != nullptr,
                "Router " << id_ << ": seeding route from unknown neighbor "
                          << from);
  adj_rib_in_.note_seen(from, route.prefix);
  adj_rib_in_.install(from, route, /*suppressed=*/false);
}

const Selected* Router::seed_decision(const Prefix& prefix) {
  // run_decision()'s candidate scan, minus propagation: the warm start seeds
  // every session's Adj-RIB-Out directly.
  Candidate best{};
  bool have_best = false;

  const auto origin_it = originated_.find(prefix);
  if (origin_it != originated_.end()) {
    best = Candidate{std::nullopt, topology::Relation::kCustomer,
                     &origin_it->second};
    have_best = true;
  }
  adj_rib_in_.usable(prefix, usable_scratch_);
  for (const RibCandidate& rc : usable_scratch_) {
    const Candidate cand{rc.neighbor, find_neighbor(rc.neighbor)->relation,
                         rc.route};
    if (!have_best || prefer(cand, best, *paths_)) {
      best = cand;
      have_best = true;
    }
  }
  if (!have_best) return nullptr;
  return loc_rib_.select(prefix, Selected{best.neighbor, *best.route});
}

void Router::seed_advertised(topology::AsId neighbor, const Update& update) {
  NeighborEntry* nb = find_neighbor(neighbor);
  BECAUSE_CHECK(nb != nullptr,
                "Router " << id_ << ": seeding unknown session " << neighbor);
  nb->session->seed_advertised(update);
}

void Router::receive(topology::AsId from, const Update& update) {
  ++updates_received_;
  const sim::Time now = queue_.now();
  const Prefix prefix = update.prefix;

  if (update.is_announcement() && paths_->contains(update.path, id_))
    return;  // loop: our own AS is already on the path

  if (update.is_announcement() && !rov_invalid_.empty() &&
      rov_invalid_.count(prefix) != 0)
    return;  // RPKI-invalid origin: rejected on import (RFC 6811)

  rfd::Damper* damper = damper_for(from, prefix);

  if (update.is_withdrawal()) {
    const AdjRibInEntry* entry = adj_rib_in_.find(from, prefix);
    if (entry == nullptr) return;  // withdrawal for an unknown route
    if (damper != nullptr) {
      const rfd::Outcome out =
          damper->on_update(prefix, rfd::UpdateKind::kWithdrawal, now);
      if (out.became_suppressed)
        obs::trace_instant("rfd.suppress", now,
                           static_cast<std::int64_t>(from));
      if (out.suppressed) schedule_release(from, prefix, out.generation);
    }
    adj_rib_in_.withdraw(from, prefix);
    run_decision(prefix);
    return;
  }

  // Announcement. Classify the event for the damping penalty.
  const AdjRibInEntry* entry = adj_rib_in_.find(from, prefix);
  rfd::UpdateKind kind;
  if (entry != nullptr) {
    kind = rfd::UpdateKind::kAttributeChange;
  } else if (adj_rib_in_.seen(from, prefix)) {
    kind = rfd::UpdateKind::kReadvertisement;
  } else {
    kind = rfd::UpdateKind::kInitialAdvertisement;
  }
  adj_rib_in_.note_seen(from, prefix);

  bool suppressed = false;
  if (damper != nullptr) {
    const rfd::Outcome out = damper->on_update(prefix, kind, now);
    suppressed = out.suppressed;
    if (out.became_suppressed)
      obs::trace_instant("rfd.suppress", now, static_cast<std::int64_t>(from));
    if (out.suppressed) schedule_release(from, prefix, out.generation);
  }

  adj_rib_in_.install(
      from, Route{prefix, update.path, update.beacon_timestamp}, suppressed);
  run_decision(prefix);
}

void Router::release_event(sim::EventQueue& /*queue*/, void* ctx,
                           std::uint64_t a, std::uint64_t /*b*/) {
  static_cast<Router*>(ctx)->on_release_timer(static_cast<std::uint32_t>(a));
}

void Router::on_release_timer(std::uint32_t slot) {
  // Copy the record and free the slot up front: try_release -> run_decision
  // can schedule further release timers, which may reuse (or grow past) it.
  const ReleaseRecord rec = releases_[slot];
  free_releases_.push_back(slot);
  rfd::Damper* d = damper_for(rec.from, rec.prefix);
  if (d == nullptr) return;
  if (d->try_release(rec.prefix, rec.generation, queue_.now())) {
    obs::trace_instant("rfd.release", queue_.now(),
                       static_cast<std::int64_t>(rec.from));
    adj_rib_in_.set_suppressed(rec.from, rec.prefix, false);
    run_decision(rec.prefix);
  }
}

void Router::schedule_release(topology::AsId from, const Prefix& prefix,
                              std::uint64_t generation) {
  rfd::Damper* damper = damper_for(from, prefix);
  if (damper == nullptr) return;
  const sim::Duration delay = damper->time_until_reuse(prefix, queue_.now());
  std::uint32_t slot;
  if (!free_releases_.empty()) {
    slot = free_releases_.back();
    free_releases_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(releases_.size());
    releases_.emplace_back();
  }
  releases_[slot] = ReleaseRecord{from, prefix, generation};
  queue_.schedule_event_in(delay, sim::EventKind::kRfdReuse,
                           &Router::release_event, this, slot);
}

void Router::run_decision(const Prefix& prefix) {
  Candidate best{};
  bool have_best = false;

  const auto origin_it = originated_.find(prefix);
  if (origin_it != originated_.end()) {
    best = Candidate{std::nullopt, topology::Relation::kCustomer,
                     &origin_it->second};
    have_best = true;
  }
  adj_rib_in_.usable(prefix, usable_scratch_);
  for (const RibCandidate& rc : usable_scratch_) {
    const Candidate cand{rc.neighbor, find_neighbor(rc.neighbor)->relation,
                         rc.route};
    if (!have_best || prefer(cand, best, *paths_)) {
      best = cand;
      have_best = true;
    }
  }

  const Selected* current = loc_rib_.find(prefix);
  if (!have_best) {
    if (current != nullptr) {
      loc_rib_.remove(prefix);
      propagate(prefix, nullptr);
    }
    return;
  }
  if (current != nullptr && current->neighbor == best.neighbor &&
      current->route.path == best.route->path &&
      current->route.beacon_timestamp == best.route->beacon_timestamp)
    return;  // no change

  const Selected* stored =
      loc_rib_.select(prefix, Selected{best.neighbor, *best.route});
  propagate(prefix, stored);
}

Update Router::desired_update_for(const Prefix& prefix,
                                  const Selected* selected) const {
  if (selected == nullptr)
    return Update{UpdateType::kWithdrawal, prefix, topology::kEmptyPath,
                  kNoBeaconTimestamp};
  Update update;
  update.type = UpdateType::kAnnouncement;
  update.prefix = prefix;
  update.path = paths_->prepend(id_, selected->route.path);
  update.beacon_timestamp = selected->route.beacon_timestamp;
  return update;
}

void Router::propagate(const Prefix& prefix, const Selected* selected) {
  const Update full_feed = desired_update_for(prefix, selected);

  const std::optional<topology::Relation> learned_from =
      selected != nullptr && selected->neighbor.has_value()
          ? std::optional(find_neighbor(*selected->neighbor)->relation)
          : std::nullopt;

  for (NeighborEntry& info : neighbors_) {
    Update update = full_feed;
    if (selected != nullptr) {
      const bool back_to_source =
          selected->neighbor.has_value() && *selected->neighbor == info.id;
      if (back_to_source || !should_export(learned_from, info.relation))
        update = Update{UpdateType::kWithdrawal, prefix, topology::kEmptyPath,
                        kNoBeaconTimestamp};
    }
    if (update.is_announcement()) apply_prepending(info.id, update);
    info.session->submit(update, queue_);
  }

  for (const ExportTap& tap : export_taps_) tap(full_feed);
}

void Router::reset_session(topology::AsId neighbor) {
  NeighborEntry* nb = find_neighbor(neighbor);
  if (nb == nullptr) throw std::invalid_argument("Router: unknown session");

  // Drop damping history for the neighbor (a fresh session starts clean;
  // pending release events are orphaned by the erased state).
  for (std::size_t r = 0; r < damping_rules_.size(); ++r)
    dampers_.erase(damper_key(neighbor, r));

  adj_rib_in_.prefixes_from(neighbor, prefix_scratch_);
  for (const Prefix& prefix : prefix_scratch_)
    adj_rib_in_.withdraw(neighbor, prefix);
  for (const Prefix& prefix : prefix_scratch_) run_decision(prefix);

  // Re-advertise our table on the fresh session.
  nb->session->reset();
  loc_rib_.prefixes(prefix_scratch_);
  for (const Prefix& prefix : prefix_scratch_) propagate_to(neighbor, prefix);
}

void Router::propagate_to(topology::AsId neighbor, const Prefix& prefix) {
  NeighborEntry* nb = find_neighbor(neighbor);
  if (nb == nullptr) return;
  const Selected* selected = loc_rib_.find(prefix);
  Update update = desired_update_for(prefix, selected);
  if (selected != nullptr) {
    const std::optional<topology::Relation> learned_from =
        selected->neighbor.has_value()
            ? std::optional(find_neighbor(*selected->neighbor)->relation)
            : std::nullopt;
    const bool back_to_source =
        selected->neighbor.has_value() && *selected->neighbor == neighbor;
    if (back_to_source || !should_export(learned_from, nb->relation))
      update = Update{UpdateType::kWithdrawal, prefix, topology::kEmptyPath,
                      kNoBeaconTimestamp};
  }
  if (update.is_announcement()) apply_prepending(neighbor, update);
  nb->session->submit(update, queue_);
}

void Router::apply_prepending(topology::AsId neighbor, Update& update) const {
  if (export_prepending_.empty()) return;
  const auto it = export_prepending_.find(neighbor);
  if (it == export_prepending_.end()) return;
  for (std::size_t i = 0; i < it->second; ++i)
    update.path = paths_->prepend(id_, update.path);
}

const Session* Router::session(topology::AsId neighbor) const {
  const NeighborEntry* nb = find_neighbor(neighbor);
  return nb == nullptr ? nullptr : nb->session.get();
}

double Router::damping_penalty(topology::AsId neighbor,
                               const Prefix& prefix) const {
  const rfd::Damper* damper = damper_for(neighbor, prefix);
  return damper == nullptr ? 0.0 : damper->penalty(prefix, queue_.now());
}

bool Router::damping_suppressed(topology::AsId neighbor,
                                const Prefix& prefix) const {
  const rfd::Damper* damper = damper_for(neighbor, prefix);
  return damper != nullptr && damper->is_suppressed(prefix);
}

}  // namespace because::bgp
