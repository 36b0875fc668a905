#include "bgp/rib.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace because::bgp {

std::size_t AdjRibIn::slot_of(topology::AsId neighbor) const {
  if (cached_slot_ != static_cast<std::size_t>(-1) &&
      cached_slot_id_ == neighbor) {
    ++memo_hits_;
    return cached_slot_;
  }
  ++memo_misses_;
  const auto it =
      std::lower_bound(neighbor_ids_.begin(), neighbor_ids_.end(), neighbor);
  if (it == neighbor_ids_.end() || *it != neighbor)
    return static_cast<std::size_t>(-1);
  cached_slot_id_ = neighbor;
  cached_slot_ = static_cast<std::size_t>(it - neighbor_ids_.begin());
  return cached_slot_;
}

void AdjRibIn::add_neighbor(topology::AsId neighbor) {
  const auto it =
      std::lower_bound(neighbor_ids_.begin(), neighbor_ids_.end(), neighbor);
  if (it != neighbor_ids_.end() && *it == neighbor) return;
  const auto pos = static_cast<std::size_t>(it - neighbor_ids_.begin());
  neighbor_ids_.insert(it, neighbor);
  cached_slot_ = static_cast<std::size_t>(-1);  // slot numbering shifted

  const std::size_t old_stride = stride_;
  const std::size_t old_words = words_;
  stride_ = neighbor_ids_.size();
  words_ = (stride_ + 63) / 64;
  const std::size_t row_count = old_stride == 0 ? 0 : cells_.size() / old_stride;
  if (row_count == 0) {
    cells_.clear();
    occupied_.clear();
    usable_.clear();
    return;
  }
  // Rebuild the slab with the widened stride; slots at or past the insert
  // position shift right by one. Wiring happens before traffic, so this is
  // effectively cold.
  std::vector<Cell> cells(row_count * stride_);
  std::vector<std::uint64_t> occupied(row_count * words_, 0);
  std::vector<std::uint64_t> usable(row_count * words_, 0);
  for (std::size_t row = 0; row < row_count; ++row) {
    for (std::size_t slot = 0; slot < old_stride; ++slot) {
      const std::size_t to = slot < pos ? slot : slot + 1;
      cells[row * stride_ + to] = cells_[row * old_stride + slot];
      const std::uint64_t bit =
          (occupied_[row * old_words + slot / 64] >> (slot % 64)) & 1u;
      const std::uint64_t use =
          (usable_[row * old_words + slot / 64] >> (slot % 64)) & 1u;
      occupied[row * words_ + to / 64] |= bit << (to % 64);
      usable[row * words_ + to / 64] |= use << (to % 64);
    }
  }
  cells_ = std::move(cells);
  occupied_ = std::move(occupied);
  usable_ = std::move(usable);
}

std::ptrdiff_t AdjRibIn::find_row(const Prefix& prefix) const {
  const std::uint64_t key = pack(prefix);
  if (key == cached_row_key_) {
    ++memo_hits_;
    return static_cast<std::ptrdiff_t>(cached_row_);
  }
  ++memo_misses_;
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), key,
      [](const auto& row, std::uint64_t k) { return row.first < k; });
  if (it == rows_.end() || it->first != key) return -1;
  cached_row_key_ = key;
  cached_row_ = it->second;
  return static_cast<std::ptrdiff_t>(it->second);
}

std::uint32_t AdjRibIn::row_of(const Prefix& prefix) {
  const std::uint64_t key = pack(prefix);
  if (key == cached_row_key_) {
    ++memo_hits_;
    return cached_row_;
  }
  ++memo_misses_;
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), key,
      [](const auto& row, std::uint64_t k) { return row.first < k; });
  if (it != rows_.end() && it->first == key) {
    cached_row_key_ = key;
    cached_row_ = it->second;
    return it->second;
  }
  const auto row = static_cast<std::uint32_t>(
      stride_ == 0 ? 0 : cells_.size() / stride_);
  rows_.insert(it, {key, row});
  cells_.resize(cells_.size() + stride_);
  occupied_.resize(occupied_.size() + words_, 0);
  usable_.resize(usable_.size() + words_, 0);
  cached_row_key_ = key;
  cached_row_ = row;
  return row;
}

void AdjRibIn::set_bit(std::vector<std::uint64_t>& bits, std::uint32_t row,
                       std::size_t slot, bool value) {
  std::uint64_t& word = bits[row * words_ + slot / 64];
  const std::uint64_t mask = std::uint64_t{1} << (slot % 64);
  if (value) word |= mask;
  else word &= ~mask;
}

bool AdjRibIn::test_bit(const std::vector<std::uint64_t>& bits,
                        std::uint32_t row, std::size_t slot) const {
  return (bits[row * words_ + slot / 64] >> (slot % 64)) & 1u;
}

void AdjRibIn::install(topology::AsId neighbor, const Route& route,
                       bool suppressed) {
  const std::size_t slot = slot_of(neighbor);
  if (slot == static_cast<std::size_t>(-1))
    throw std::invalid_argument("AdjRibIn: install from unknown neighbor");
  const std::uint32_t row = row_of(route.prefix);
  Cell& cell = cells_[row * stride_ + slot];
  cell.entry = AdjRibInEntry{route, suppressed};
  if (!test_bit(occupied_, row, slot)) {
    set_bit(occupied_, row, slot, true);
    ++route_count_;
  }
  set_bit(usable_, row, slot, !suppressed);
}

bool AdjRibIn::withdraw(topology::AsId neighbor, const Prefix& prefix) {
  const std::size_t slot = slot_of(neighbor);
  if (slot == static_cast<std::size_t>(-1)) return false;
  const std::ptrdiff_t row = find_row(prefix);
  if (row < 0) return false;
  if (!test_bit(occupied_, static_cast<std::uint32_t>(row), slot)) return false;
  set_bit(occupied_, static_cast<std::uint32_t>(row), slot, false);
  set_bit(usable_, static_cast<std::uint32_t>(row), slot, false);
  --route_count_;
  return true;
}

void AdjRibIn::set_suppressed(topology::AsId neighbor, const Prefix& prefix,
                              bool value) {
  const std::size_t slot = slot_of(neighbor);
  if (slot == static_cast<std::size_t>(-1)) return;
  const std::ptrdiff_t row = find_row(prefix);
  if (row < 0 || !test_bit(occupied_, static_cast<std::uint32_t>(row), slot))
    return;
  cells_[static_cast<std::size_t>(row) * stride_ + slot].entry.suppressed = value;
  set_bit(usable_, static_cast<std::uint32_t>(row), slot, !value);
}

const AdjRibInEntry* AdjRibIn::find(topology::AsId neighbor,
                                    const Prefix& prefix) const {
  const std::size_t slot = slot_of(neighbor);
  if (slot == static_cast<std::size_t>(-1)) return nullptr;
  const std::ptrdiff_t row = find_row(prefix);
  if (row < 0 || !test_bit(occupied_, static_cast<std::uint32_t>(row), slot))
    return nullptr;
  return &cells_[static_cast<std::size_t>(row) * stride_ + slot].entry;
}

void AdjRibIn::usable(const Prefix& prefix,
                      std::vector<RibCandidate>& out) const {
  out.clear();
  const std::ptrdiff_t row = find_row(prefix);
  if (row < 0) return;
  const std::size_t base = static_cast<std::size_t>(row) * words_;
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t word = usable_[base + w];
    while (word != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      const std::size_t slot = w * 64 + bit;
      out.push_back(RibCandidate{
          neighbor_ids_[slot],
          &cells_[static_cast<std::size_t>(row) * stride_ + slot].entry.route});
    }
  }
}

void AdjRibIn::prefixes_from(topology::AsId neighbor,
                             std::vector<Prefix>& out) const {
  out.clear();
  const std::size_t slot = slot_of(neighbor);
  if (slot == static_cast<std::size_t>(-1)) return;
  for (const auto& [key, row] : rows_)
    if (test_bit(occupied_, row, slot)) out.push_back(unpack_prefix(key));
}

void AdjRibIn::note_seen(topology::AsId neighbor, const Prefix& prefix) {
  const std::size_t slot = slot_of(neighbor);
  if (slot == static_cast<std::size_t>(-1))
    throw std::invalid_argument("AdjRibIn: note_seen from unknown neighbor");
  const std::uint32_t row = row_of(prefix);
  cells_[row * stride_ + slot].seen = true;
}

bool AdjRibIn::seen(topology::AsId neighbor, const Prefix& prefix) const {
  const std::size_t slot = slot_of(neighbor);
  if (slot == static_cast<std::size_t>(-1)) return false;
  const std::ptrdiff_t row = find_row(prefix);
  if (row < 0) return false;
  return cells_[static_cast<std::size_t>(row) * stride_ + slot].seen;
}

std::ptrdiff_t LocRib::find_slot(const Prefix& prefix) const {
  const std::uint64_t key = pack(prefix);
  if (key == cached_key_) {
    ++memo_hits_;
    return static_cast<std::ptrdiff_t>(cached_slot_);
  }
  ++memo_misses_;
  const auto it = std::lower_bound(
      slots_index_.begin(), slots_index_.end(), key,
      [](const auto& entry, std::uint64_t k) { return entry.first < k; });
  if (it == slots_index_.end() || it->first != key) return -1;
  cached_key_ = key;
  cached_slot_ = it->second;
  return static_cast<std::ptrdiff_t>(it->second);
}

const Selected* LocRib::select(const Prefix& prefix, const Selected& selected) {
  const std::uint64_t key = pack(prefix);
  const auto it = std::lower_bound(
      slots_index_.begin(), slots_index_.end(), key,
      [](const auto& entry, std::uint64_t k) { return entry.first < k; });
  std::size_t slot;
  if (it != slots_index_.end() && it->first == key) {
    slot = it->second;
  } else {
    slot = slots_.size();
    slots_index_.insert(it, {key, static_cast<std::uint32_t>(slot)});
    slots_.emplace_back();
    occupied_.push_back(0);
  }
  cached_key_ = key;
  cached_slot_ = static_cast<std::uint32_t>(slot);
  slots_[slot] = selected;
  if (occupied_[slot] == 0) {
    occupied_[slot] = 1;
    ++size_;
  }
  return &slots_[slot];
}

bool LocRib::remove(const Prefix& prefix) {
  const std::ptrdiff_t slot = find_slot(prefix);
  if (slot < 0 || occupied_[static_cast<std::size_t>(slot)] == 0) return false;
  occupied_[static_cast<std::size_t>(slot)] = 0;
  --size_;
  return true;
}

const Selected* LocRib::find(const Prefix& prefix) const {
  const std::ptrdiff_t slot = find_slot(prefix);
  if (slot < 0 || occupied_[static_cast<std::size_t>(slot)] == 0) return nullptr;
  return &slots_[static_cast<std::size_t>(slot)];
}

void LocRib::prefixes(std::vector<Prefix>& out) const {
  out.clear();
  out.reserve(size_);
  for (const auto& [key, slot] : slots_index_)
    if (occupied_[slot] != 0) out.push_back(unpack_prefix(key));
}

}  // namespace because::bgp
