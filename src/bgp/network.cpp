#include "bgp/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "util/contracts.hpp"

namespace because::bgp {

namespace {

/// Undirected link key used only during construction to dedupe delay draws.
std::uint64_t link_key(topology::AsId a, topology::AsId b) {
  const topology::AsId lo = std::min(a, b);
  const topology::AsId hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Per-session key for the hashed-jitter stream: a splitmix64 finalizer over
/// (network seed, sender, receiver), forced nonzero. A pure function of the
/// session's identity, so the stream is identical at every shard count.
std::uint64_t session_jitter_key(std::uint64_t seed, topology::AsId local,
                                 topology::AsId remote) {
  std::uint64_t z =
      seed ^ (static_cast<std::uint64_t>(local) << 32) ^ remote;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z | 1;
}

}  // namespace

Network::Network(const topology::AsGraph& graph, const NetworkConfig& config,
                 sim::EventQueue& queue, stats::Rng& rng)
    : Network(graph, config,
              NetworkShards{{&queue},
                            {std::make_shared<topology::PathTable>()},
                            {}},
              rng) {}

Network::Network(const topology::AsGraph& graph, const NetworkConfig& config,
                 const NetworkShards& shards, stats::Rng& rng)
    : graph_(graph),
      config_(config),
      paths_(shards.tables.empty() ? nullptr : shards.tables[0]),
      shard_queues_(shards.queues),
      shard_tables_(shards.tables),
      shard_of_(shards.shard_of) {
  if (shard_queues_.empty())
    throw std::invalid_argument("Network: need >= 1 shard queue");
  if (shard_tables_.size() != shard_queues_.size())
    throw std::invalid_argument("Network: shard queue/table count mismatch");
  for (std::size_t s = 0; s < shard_queues_.size(); ++s) {
    if (shard_queues_[s] == nullptr || shard_tables_[s] == nullptr)
      throw std::invalid_argument("Network: null shard queue or table");
  }
  if (config_.min_link_delay < 0 ||
      config_.max_link_delay < config_.min_link_delay)
    throw std::invalid_argument("Network: bad link delay range");

  // Create routers in ascending AS order; the sorted id list doubles as the
  // dense-index directory. Each router lives on its shard's queue and table.
  ids_ = graph_.as_ids();
  if (shard_of_.empty()) shard_of_.assign(ids_.size(), 0);
  if (shard_of_.size() != ids_.size())
    throw std::invalid_argument("Network: shard_of size != AS count");
  for (const std::uint32_t s : shard_of_) {
    if (s >= shard_queues_.size())
      throw std::invalid_argument("Network: shard_of entry out of range");
  }
  routers_.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const std::uint32_t s = shard_of_[i];
    routers_.push_back(std::make_unique<Router>(
        ids_[i], *shard_queues_[s], *shard_tables_[s]));
  }
  delivery_slabs_.resize(shard_queues_.size());

  // Draw one delay per undirected link. The iteration order (sorted ids, then
  // adjacency order) is the replay contract: a (topology, seed) pair must
  // yield the same delays regardless of how the delays are stored — and
  // regardless of the shard count.
  std::unordered_map<std::uint64_t, sim::Duration> drawn;
  for (topology::AsId id : ids_) {
    for (const topology::Neighbor& nb : graph_.neighbors(id)) {
      const std::uint64_t key = link_key(id, nb.id);
      if (drawn.count(key) == 0) {
        drawn[key] = rng.uniform_int(config_.min_link_delay,
                                     config_.max_link_delay);
      }
    }
  }
  // MRAI jitter draws come from per-session hash streams seeded here.
  jitter_seed_ = rng.engine()();

  // Flatten the delays into a CSR table over dense indices, each row sorted
  // by destination for binary-searched lookup.
  link_offsets_.assign(ids_.size() + 1, 0);
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    link_offsets_[i + 1] =
        link_offsets_[i] +
        static_cast<std::uint32_t>(graph_.neighbors(ids_[i]).size());
  }
  links_.resize(link_offsets_.back());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    std::size_t off = link_offsets_[i];
    for (const topology::Neighbor& nb : graph_.neighbors(ids_[i])) {
      const std::uint32_t to = dense_index(nb.id);
      const sim::Duration delay = drawn.at(link_key(ids_[i], nb.id));
      links_[off++] = Link{to, delay};
      if (shard_of_[i] != shard_of_[to])
        min_cut_delay_ = std::min(min_cut_delay_, delay);
    }
    BECAUSE_ASSERT(off == link_offsets_[i + 1],
                   "CSR row " << i << " filled " << off << " links, offsets say "
                              << link_offsets_[i + 1]);
    std::sort(links_.begin() + link_offsets_[i],
              links_.begin() + link_offsets_[i + 1],
              [](const Link& x, const Link& y) { return x.to < y.to; });
  }
  BECAUSE_ASSERT(link_offsets_.back() == links_.size(),
                 "CSR link table: offsets end at " << link_offsets_.back()
                                                   << " but " << links_.size()
                                                   << " links stored");

  // Wire sessions. The send function captures dense indices once; per-message
  // delivery goes through the typed-event slab, not a fresh closure.
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    Router& local = *routers_[i];
    const topology::AsId local_id = ids_[i];
    const auto from_index = static_cast<std::uint32_t>(i);
    for (const topology::Neighbor& nb : graph_.neighbors(local_id)) {
      const std::uint32_t to = dense_index(nb.id);
      const sim::Duration delay = drawn.at(link_key(local_id, nb.id));
      auto send = [this, to, from_index, delay](const Update& update) {
        deliver_in(delay, to, from_index, update);
      };
      local.connect(nb.id, nb.relation, config_.mrai,
                    config_.mrai_on_withdrawals, std::move(send),
                    config_.mrai_jitter,
                    session_jitter_key(jitter_seed_, local_id, nb.id));
    }
  }
}

std::ptrdiff_t Network::find_index(topology::AsId id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  return it != ids_.end() && *it == id ? it - ids_.begin() : -1;
}

std::uint32_t Network::dense_index(topology::AsId id) const {
  const std::ptrdiff_t index = find_index(id);
  if (index < 0)
    throw std::out_of_range("Network: neighbor AS missing from graph id set");
  return static_cast<std::uint32_t>(index);
}

std::uint32_t Network::alloc_slot(DeliverySlab& slab) {
  if (!slab.free.empty()) {
    const std::uint32_t slot = slab.free.back();
    slab.free.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slab.slots.size());
  slab.slots.emplace_back();
  return slot;
}

void Network::deliver_in(sim::Duration delay, std::uint32_t to_index,
                         std::uint32_t from_index, const Update& update) {
  const std::uint32_t src = shard_of_[from_index];
  std::uint32_t shard = src;
  if (!shard_queues_[src]->in_round()) {
    // Setup or between rounds: the whole system is single-threaded, so the
    // event may be placed directly where it will execute. (In-round sends
    // stay on the sender's shard: same-shard ones execute locally, and
    // cross-shard ones land at or beyond the horizon, get captured, and are
    // moved by translate_capture at the merge.)
    shard = shard_of_[to_index];
  }
  DeliverySlab& slab = delivery_slabs_[shard];
  const std::uint32_t slot = alloc_slot(slab);
  PendingDelivery& pending = slab.slots[slot];
  pending.to_index = to_index;
  pending.from = ids_[from_index];
  pending.update = update;
  if (shard != src) {
    pending.update.path =
        shard_tables_[shard]->intern(shard_tables_[src]->span(update.path));
  }
  shard_queues_[shard]->schedule_event_in(delay, sim::EventKind::kBgpDelivery,
                                          &Network::delivery_event, this, slot,
                                          shard);
}

void Network::delivery_event(sim::EventQueue& /*queue*/, void* ctx,
                             std::uint64_t a, std::uint64_t b) {
  static_cast<Network*>(ctx)->on_delivery(static_cast<std::uint32_t>(b),
                                          static_cast<std::uint32_t>(a));
}

void Network::on_delivery(std::uint32_t shard, std::uint32_t slot) {
  BECAUSE_ASSERT(shard < delivery_slabs_.size(),
                 "delivery slab " << shard << " out of range ("
                                  << delivery_slabs_.size() << " slabs)");
  DeliverySlab& slab = delivery_slabs_[shard];
  BECAUSE_ASSERT(slot < slab.slots.size() &&
                     slab.slots[slot].to_index != kFreeSlot,
                 "delivery slot " << slot << " out of range or already freed ("
                                  << slab.slots.size() << " slots)");
  // Copy the payload out and free the slot *before* receive(): the receive
  // cascade schedules further deliveries, which may reuse this slot or grow
  // the slab.
  PendingDelivery& pending = slab.slots[slot];
  Router* to = routers_[pending.to_index].get();
  const topology::AsId from = pending.from;
  const Update update = pending.update;
  pending.to_index = kFreeSlot;  // marks the slot free for the contract above
  slab.free.push_back(slot);
  to->receive(from, update);
}

std::uint32_t Network::translate_capture(std::uint32_t src_shard,
                                         sim::EventQueue::CapturedEvent& cap) {
  if (cap.fn != &Network::delivery_event || cap.ctx != this) return src_shard;
  DeliverySlab& src_slab = delivery_slabs_[src_shard];
  const auto slot = static_cast<std::uint32_t>(cap.a);
  BECAUSE_ASSERT(slot < src_slab.slots.size() &&
                     src_slab.slots[slot].to_index != kFreeSlot,
                 "captured delivery slot " << slot << " invalid in slab "
                                           << src_shard);
  const std::uint32_t dst = shard_of_[src_slab.slots[slot].to_index];
  if (dst == src_shard) return src_shard;
  PendingDelivery pending = src_slab.slots[slot];
  src_slab.slots[slot].to_index = kFreeSlot;
  src_slab.free.push_back(slot);
  pending.update.path = shard_tables_[dst]->intern(
      shard_tables_[src_shard]->span(pending.update.path));
  DeliverySlab& dst_slab = delivery_slabs_[dst];
  const std::uint32_t new_slot = alloc_slot(dst_slab);
  dst_slab.slots[new_slot] = pending;
  cap.a = new_slot;
  cap.b = dst;
  return dst;
}

Router& Network::router(topology::AsId id) {
  const std::ptrdiff_t index = find_index(id);
  if (index < 0) throw std::out_of_range("Network: unknown AS");
  return *routers_[static_cast<std::size_t>(index)];
}

const Router& Network::router(topology::AsId id) const {
  const std::ptrdiff_t index = find_index(id);
  if (index < 0) throw std::out_of_range("Network: unknown AS");
  return *routers_[static_cast<std::size_t>(index)];
}

sim::Duration Network::link_delay(topology::AsId a, topology::AsId b) const {
  const std::ptrdiff_t ia = find_index(a);
  const std::ptrdiff_t ib = find_index(b);
  if (ia < 0 || ib < 0) throw std::out_of_range("Network: unknown link");
  const auto target = static_cast<std::uint32_t>(ib);
  const auto first = links_.begin() + link_offsets_[static_cast<std::size_t>(ia)];
  const auto last = links_.begin() + link_offsets_[static_cast<std::size_t>(ia) + 1];
  const auto it = std::lower_bound(
      first, last, target,
      [](const Link& link, std::uint32_t to) { return link.to < to; });
  if (it == last || it->to != target)
    throw std::out_of_range("Network: unknown link");
  return it->delay;
}

void Network::reset_session(topology::AsId a, topology::AsId b) {
  router(a).reset_session(b);
  router(b).reset_session(a);
}

}  // namespace because::bgp
