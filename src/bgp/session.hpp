// Outbound BGP session state: MRAI rate limiting plus Adj-RIB-Out
// deduplication.
//
// The Minimum Route Advertisement Interval is applied per prefix on the
// sending side: while the timer runs, only the latest update is held and
// flushed when the timer expires. Withdrawals bypass MRAI by default
// (classic BGP behaviour); this is configurable. The session also remembers
// the last update actually sent so identical re-sends are elided — note that
// two announcements with the same path but different beacon timestamps are
// NOT identical (the aggregator attribute changed), which is exactly why
// beacon updates propagate network-wide.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bgp/message.hpp"
#include "sim/event_queue.hpp"
#include "topology/as_graph.hpp"

namespace because::bgp {

class Session {
 public:
  /// `send` performs the actual delivery (the Network schedules the link
  /// delay); Session only decides *when* to hand updates to it.
  using SendFn = std::function<void(const Update&)>;

  /// A nonzero `jitter` enables MRAI jitter: after each send the next
  /// window is drawn uniformly from [(1 - jitter) * mrai, mrai], as RFC 4271
  /// recommends, which desynchronises update races across sessions. Draws
  /// come from a counter-hash stream keyed by `jitter_key`: each mixes (key,
  /// draw index) through splitmix64, so the sequence is a pure function of
  /// the session's identity — independent of how many other sessions draw
  /// in between, which keeps results shard-count-invariant in the
  /// space-parallel engine.
  Session(topology::AsId local, topology::AsId remote,
          topology::Relation relation_to_remote, sim::Duration mrai,
          bool mrai_on_withdrawals, SendFn send, double jitter = 0.0,
          std::uint64_t jitter_key = 0);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  /// Publishes the send/elision tallies to the obs registry when enabled.
  ~Session();

  topology::AsId remote() const { return remote_; }
  topology::Relation relation() const { return relation_; }

  /// Submit the desired state for a prefix; the session dedups and applies
  /// MRAI. `queue` supplies the clock and timer scheduling.
  void submit(const Update& update, sim::EventQueue& queue);

  /// Forget all per-prefix state (session reset): the remote's table is
  /// empty again, MRAI timers are cleared, pending updates dropped.
  void reset();

  /// True if the remote currently holds an announcement for `prefix`
  /// (i.e., the last effective update sent was an announcement).
  bool advertised(const Prefix& prefix) const;

  /// Warm-start seeding: record `update` as the last announcement delivered
  /// on this session without sending anything (bgp/static_converge.cpp).
  /// BECAUSE_CHECK fails on a withdrawal.
  void seed_advertised(const Update& update);

  std::uint64_t updates_sent() const { return updates_sent_; }
  std::uint64_t sends_elided() const { return sends_elided_; }

 private:
  struct PrefixState {
    /// Flat-map key: bgp::pack(prefix). States are kept sorted by this key.
    std::uint64_t key = 0;
    /// Next time an MRAI-governed update may be sent; 0 = immediately.
    sim::Time next_allowed_at = 0;
    std::optional<Update> pending;
    bool flush_scheduled = false;
    /// Last announcement delivered; nullopt = withdrawn / never announced.
    std::optional<Update> advertised;
  };

  /// Typed MRAI-timer event: `a` carries the packed prefix.
  static void flush_event(sim::EventQueue& queue, void* ctx, std::uint64_t a,
                          std::uint64_t b);

  sim::Duration draw_mrai();
  PrefixState& state_for(const Prefix& prefix);
  const PrefixState* find_state(const Prefix& prefix) const;
  PrefixState* find_state(const Prefix& prefix);
  void send_or_skip(PrefixState& state, const Update& update,
                    sim::EventQueue& queue);
  void flush(const Prefix& prefix, sim::EventQueue& queue);

  topology::AsId local_;
  topology::AsId remote_;
  topology::Relation relation_;
  sim::Duration mrai_;
  bool mrai_on_withdrawals_;
  SendFn send_;
  double jitter_;
  std::uint64_t jitter_key_;
  std::uint64_t jitter_draws_ = 0;
  /// Sorted by key; sessions see tens of prefixes, so a flat binary-searched
  /// vector beats the old per-message unordered_map hashing.
  std::vector<PrefixState> states_;
  /// One-entry index memo for the repeated same-prefix lookups of a flap
  /// cascade. Invalidated whenever states_ is resorted by an insert.
  mutable std::size_t cached_state_ = static_cast<std::size_t>(-1);
  std::uint64_t updates_sent_ = 0;
  // Obs tallies (announcements + withdrawals == updates_sent_); flushed by
  // the destructor so the hot path stays plain member increments.
  std::uint64_t announcements_sent_ = 0;
  std::uint64_t withdrawals_sent_ = 0;
  std::uint64_t sends_elided_ = 0;
};

}  // namespace because::bgp
