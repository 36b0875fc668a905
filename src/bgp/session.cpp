#include "bgp/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace because::bgp {

Session::~Session() {
  if (!obs::enabled()) return;
  obs::add(obs::Counter::kBgpAnnouncementsSent, announcements_sent_);
  obs::add(obs::Counter::kBgpWithdrawalsSent, withdrawals_sent_);
  obs::add(obs::Counter::kBgpSendsElided, sends_elided_);
}

Session::Session(topology::AsId local, topology::AsId remote,
                 topology::Relation relation_to_remote, sim::Duration mrai,
                 bool mrai_on_withdrawals, SendFn send, double jitter,
                 std::uint64_t jitter_key)
    : local_(local),
      remote_(remote),
      relation_(relation_to_remote),
      mrai_(mrai),
      mrai_on_withdrawals_(mrai_on_withdrawals),
      send_(std::move(send)),
      jitter_(jitter),
      jitter_key_(jitter_key) {
  if (!send_) throw std::invalid_argument("Session: null send function");
  if (mrai_ < 0) throw std::invalid_argument("Session: negative MRAI");
  if (jitter_ < 0.0 || jitter_ > 1.0)
    throw std::invalid_argument("Session: jitter outside [0,1]");
}

sim::Duration Session::draw_mrai() {
  if (jitter_ <= 0.0 || mrai_ == 0) return mrai_;
  // splitmix64 over (key, draw index): a per-session stream whose value
  // never depends on other sessions' draw interleaving.
  std::uint64_t z = jitter_key_ + 0x9e3779b97f4a7c15ULL * ++jitter_draws_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  const double factor = (1.0 - jitter_) + jitter_ * u;
  return static_cast<sim::Duration>(static_cast<double>(mrai_) * factor);
}

Session::PrefixState& Session::state_for(const Prefix& prefix) {
  const std::uint64_t key = pack(prefix);
  if (cached_state_ < states_.size() && states_[cached_state_].key == key)
    return states_[cached_state_];
  const auto it = std::lower_bound(
      states_.begin(), states_.end(), key,
      [](const PrefixState& s, std::uint64_t k) { return s.key < k; });
  if (it != states_.end() && it->key == key) {
    cached_state_ = static_cast<std::size_t>(it - states_.begin());
    return *it;
  }
  PrefixState state;
  state.key = key;
  const auto inserted = states_.insert(it, std::move(state));
  cached_state_ = static_cast<std::size_t>(inserted - states_.begin());
  return *inserted;
}

const Session::PrefixState* Session::find_state(const Prefix& prefix) const {
  const std::uint64_t key = pack(prefix);
  if (cached_state_ < states_.size() && states_[cached_state_].key == key)
    return &states_[cached_state_];
  const auto it = std::lower_bound(
      states_.begin(), states_.end(), key,
      [](const PrefixState& s, std::uint64_t k) { return s.key < k; });
  if (it == states_.end() || it->key != key) return nullptr;
  cached_state_ = static_cast<std::size_t>(it - states_.begin());
  return &*it;
}

Session::PrefixState* Session::find_state(const Prefix& prefix) {
  const std::uint64_t key = pack(prefix);
  if (cached_state_ < states_.size() && states_[cached_state_].key == key)
    return &states_[cached_state_];
  const auto it = std::lower_bound(
      states_.begin(), states_.end(), key,
      [](const PrefixState& s, std::uint64_t k) { return s.key < k; });
  if (it == states_.end() || it->key != key) return nullptr;
  cached_state_ = static_cast<std::size_t>(it - states_.begin());
  return &*it;
}

void Session::flush_event(sim::EventQueue& queue, void* ctx, std::uint64_t a,
                          std::uint64_t) {
  static_cast<Session*>(ctx)->flush(unpack_prefix(a), queue);
}

void Session::submit(const Update& update, sim::EventQueue& queue) {
  PrefixState& state = state_for(update.prefix);
  const sim::Time now = queue.now();

  const bool exempt_from_mrai =
      update.is_withdrawal() && !mrai_on_withdrawals_;
  if (exempt_from_mrai) {
    // The withdrawal supersedes anything waiting for the MRAI timer.
    state.pending.reset();
    send_or_skip(state, update, queue);
    return;
  }

  if (state.flush_scheduled) {
    state.pending = update;  // newest state wins; older pending is obsolete
    return;
  }
  if (now >= state.next_allowed_at) {
    send_or_skip(state, update, queue);
    return;
  }
  state.pending = update;
  state.flush_scheduled = true;
  queue.schedule_event_at(state.next_allowed_at, sim::EventKind::kMraiTimer,
                          &Session::flush_event, this, pack(update.prefix));
}

void Session::send_or_skip(PrefixState& state, const Update& update,
                           sim::EventQueue& queue) {
  if (update.is_withdrawal()) {
    if (!state.advertised.has_value()) {
      ++sends_elided_;  // remote holds nothing anyway
      return;
    }
    state.advertised.reset();
    ++withdrawals_sent_;
  } else {
    if (state.advertised.has_value() && state.advertised->path == update.path &&
        state.advertised->beacon_timestamp == update.beacon_timestamp) {
      ++sends_elided_;  // identical announcement, nothing to refresh
      return;
    }
    state.advertised = update;
    ++announcements_sent_;
  }
  state.next_allowed_at = queue.now() + draw_mrai();
  ++updates_sent_;
  send_(update);
}

void Session::flush(const Prefix& prefix, sim::EventQueue& queue) {
  PrefixState* found = find_state(prefix);
  if (found == nullptr) return;
  PrefixState& state = *found;
  state.flush_scheduled = false;
  if (!state.pending.has_value()) return;
  const Update update = *state.pending;
  state.pending.reset();
  send_or_skip(state, update, queue);
}

void Session::reset() {
  // Scheduled flush events become harmless: they find no pending update.
  for (PrefixState& state : states_) {
    state.pending.reset();
    state.advertised.reset();
    state.next_allowed_at = 0;
  }
}

bool Session::advertised(const Prefix& prefix) const {
  const PrefixState* state = find_state(prefix);
  return state != nullptr && state->advertised.has_value();
}

void Session::seed_advertised(const Update& update) {
  BECAUSE_CHECK(update.is_announcement(),
                "Session: only announcements seed Adj-RIB-Out");
  state_for(update.prefix).advertised = update;
}

}  // namespace because::bgp
