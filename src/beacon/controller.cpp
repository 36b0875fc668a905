#include "beacon/controller.hpp"

#include <stdexcept>

namespace because::beacon {

namespace {

/// Typed kBeacon event payload: `a` is the packed prefix with the announce
/// flag in bit 63 (prefix packing only uses the low 40 bits), `b` the beacon
/// timestamp to encode in the announcement.
constexpr std::uint64_t kAnnounceBit = std::uint64_t{1} << 63;

void beacon_event(sim::EventQueue& /*queue*/, void* ctx, std::uint64_t a,
                  std::uint64_t b) {
  auto* router = static_cast<bgp::Router*>(ctx);
  const bgp::Prefix prefix = bgp::unpack_prefix(a & ~kAnnounceBit);
  if ((a & kAnnounceBit) != 0) {
    router->originate(prefix, static_cast<sim::Time>(b));
  } else {
    router->withdraw_origin(prefix);
  }
}

}  // namespace

void Controller::deploy(topology::AsId origin, const bgp::Prefix& prefix,
                        const BeaconSchedule& schedule) {
  schedule_events(origin, prefix, expand(schedule));
}

void Controller::deploy_anchor(topology::AsId origin, const bgp::Prefix& prefix,
                               const AnchorSchedule& schedule) {
  schedule_events(origin, prefix, expand(schedule));
}

void Controller::schedule_events(topology::AsId origin, const bgp::Prefix& prefix,
                                 std::vector<BeaconEvent> events) {
  if (!network_.contains(origin))
    throw std::invalid_argument("Controller: unknown origin AS");
  if (logs_.count(prefix) != 0)
    throw std::invalid_argument("Controller: prefix already deployed");

  bgp::Router& router = network_.router(origin);
  // The origin's shard queue: beacon events execute on the thread that owns
  // the origin router.
  sim::EventQueue& queue = network_.queue_for(origin);
  const std::uint64_t packed = bgp::pack(prefix);
  for (const BeaconEvent& event : events) {
    const bool announce = event.type == bgp::UpdateType::kAnnouncement;
    queue.schedule_event_at(event.when, sim::EventKind::kBeacon, &beacon_event,
                            &router, announce ? (packed | kAnnounceBit) : packed,
                            static_cast<std::uint64_t>(event.when));
  }
  logs_.emplace(prefix, std::move(events));
  origins_.emplace(prefix, origin);
}

const std::vector<BeaconEvent>& Controller::events(const bgp::Prefix& prefix) const {
  const auto it = logs_.find(prefix);
  if (it == logs_.end()) throw std::out_of_range("Controller: unknown prefix");
  return it->second;
}

topology::AsId Controller::origin(const bgp::Prefix& prefix) const {
  const auto it = origins_.find(prefix);
  if (it == origins_.end()) throw std::out_of_range("Controller: unknown prefix");
  return it->second;
}

}  // namespace because::beacon
