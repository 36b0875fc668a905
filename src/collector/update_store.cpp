#include "collector/update_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "util/contracts.hpp"

namespace because::collector {

UpdateStore::UpdateStore(std::shared_ptr<topology::PathTable> paths)
    : paths_(std::move(paths)) {
  if (paths_ == nullptr)
    throw std::invalid_argument("UpdateStore: null path table");
}

VpId UpdateStore::register_vp(topology::AsId as, Project project,
                              sim::Duration export_delay) {
  const VpId id = static_cast<VpId>(vps_.size());
  vps_.push_back(VpInfo{id, as, project, export_delay});
  return id;
}

const VpInfo& UpdateStore::vp(VpId id) const {
  if (id >= vps_.size()) throw std::out_of_range("UpdateStore: unknown VP");
  return vps_[id];
}

void UpdateStore::record_event(sim::EventQueue& queue, void* ctx,
                               std::uint64_t a, std::uint64_t /*b*/) {
  auto* store = static_cast<UpdateStore*>(ctx);
  const auto slot = static_cast<std::uint32_t>(a);
  // Copy out and free the slot first: record() never schedules, but keeping
  // the slab consistent before reentry is the slab idiom everywhere else.
  const PendingRecord rec = store->pending_[slot];
  store->free_pending_.push_back(slot);
  store->record(rec.vp, queue.now(), rec.update, queue.current_event_seq());
}

void UpdateStore::schedule_record(sim::EventQueue& queue, sim::Duration delay,
                                  VpId vp, const bgp::Update& update) {
  std::uint32_t slot;
  if (!free_pending_.empty()) {
    slot = free_pending_.back();
    free_pending_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  pending_[slot] = PendingRecord{vp, update};
  queue.schedule_event_in(delay, sim::EventKind::kCollectorRecord,
                          &UpdateStore::record_event, this, slot);
}

void UpdateStore::record(VpId vp, sim::Time recorded_at, const bgp::Update& update,
                         std::uint64_t seq) {
  if (vp >= vps_.size()) throw std::out_of_range("UpdateStore: unknown VP");
  const std::size_t idx = records_.size();
  by_stream_[stream_key(vp, update.prefix)].push_back(idx);
  by_prefix_[update.prefix].push_back(idx);
  records_.push_back(RecordedUpdate{recorded_at, vp, update});
  seqs_.push_back(seq);
}

std::vector<RecordedUpdate> UpdateStore::for_vp_prefix(
    VpId vp, const bgp::Prefix& prefix) const {
  std::vector<RecordedUpdate> out;
  const auto it = by_stream_.find(stream_key(vp, prefix));
  if (it == by_stream_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t idx : it->second) out.push_back(records_[idx]);
  std::stable_sort(out.begin(), out.end(),
                   [](const RecordedUpdate& a, const RecordedUpdate& b) {
                     return a.recorded_at < b.recorded_at;
                   });
  return out;
}

std::vector<RecordedUpdate> UpdateStore::for_prefix(const bgp::Prefix& prefix) const {
  std::vector<RecordedUpdate> out;
  const auto it = by_prefix_.find(prefix);
  if (it == by_prefix_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t idx : it->second) out.push_back(records_[idx]);
  std::stable_sort(out.begin(), out.end(),
                   [](const RecordedUpdate& a, const RecordedUpdate& b) {
                     return a.recorded_at < b.recorded_at;
                   });
  return out;
}

void UpdateStore::rebuild_indices() {
  by_stream_.clear();
  by_prefix_.clear();
  for (std::size_t idx = 0; idx < records_.size(); ++idx) {
    const RecordedUpdate& r = records_[idx];
    by_stream_[stream_key(r.vp, r.update.prefix)].push_back(idx);
    by_prefix_[r.update.prefix].push_back(idx);
  }
}

void UpdateStore::discard_invalid_aggregators() {
  const auto is_invalid = [](const RecordedUpdate& r) {
    return r.update.is_announcement() &&
           r.update.beacon_timestamp == bgp::kNoBeaconTimestamp;
  };
  const std::size_t before = records_.size();
  records_.erase(std::remove_if(records_.begin(), records_.end(), is_invalid),
                 records_.end());
  discarded_ += before - records_.size();
  seqs_.clear();  // indices no longer line up; merge_shards must precede this
  rebuild_indices();
}

UpdateStore UpdateStore::merge_shards(std::vector<UpdateStore> shards) {
  if (shards.empty())
    throw std::invalid_argument("UpdateStore: no shard stores to merge");
  if (shards.size() == 1) return std::move(shards[0]);
  UpdateStore merged;
  merged.vps_ = shards[0].vps_;
  struct Ref {
    const UpdateStore* store;
    std::size_t index;
  };
  std::vector<Ref> order;
  std::size_t total = 0;
  for (const UpdateStore& shard : shards) {
    if (shard.vps_.size() != merged.vps_.size())
      throw std::invalid_argument("UpdateStore: shard VP directory mismatch");
    BECAUSE_CHECK(shard.seqs_.size() == shard.records_.size(),
                  "UpdateStore: shard seq log out of sync ("
                      << shard.seqs_.size() << " seqs, "
                      << shard.records_.size() << " records)");
    total += shard.records_.size();
  }
  order.reserve(total);
  for (const UpdateStore& shard : shards) {
    for (std::size_t i = 0; i < shard.records_.size(); ++i) {
      BECAUSE_CHECK((shard.seqs_[i] & sim::EventQueue::kProvisionalBit) == 0,
                    "UpdateStore: record carries a provisional seq — a "
                    "collector export was scheduled under the engine "
                    "lookahead");
      order.push_back(Ref{&shard, i});
    }
  }
  // (recorded_at, seq) is the serial recording order: the queue pops by it,
  // and every recording event holds a globally ordered seq.
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    const RecordedUpdate& ra = a.store->records_[a.index];
    const RecordedUpdate& rb = b.store->records_[b.index];
    if (ra.recorded_at != rb.recorded_at) return ra.recorded_at < rb.recorded_at;
    return a.store->seqs_[a.index] < b.store->seqs_[b.index];
  });
  merged.records_.reserve(total);
  for (const Ref& ref : order) {
    const RecordedUpdate& rec = ref.store->records_[ref.index];
    bgp::Update update = rec.update;
    update.path = merged.paths_->intern(ref.store->path_of(rec));
    merged.record(rec.vp, rec.recorded_at, update, ref.store->seqs_[ref.index]);
  }
  return merged;
}

}  // namespace because::collector
