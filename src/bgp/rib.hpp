// Routing information bases.
//
// AdjRibIn stores, per neighbor and prefix, the last route received plus the
// RFD suppression mark; LocRib stores the selected best route per prefix.
//
// Both are flat slabs. AdjRibIn keeps its cells in one slab indexed by
// (prefix row x sorted neighbor slot); the decision process scans a per-row
// usable-bitmap instead of probing once per neighbor, and queries fill
// caller-supplied scratch buffers, so the steady-state message path
// allocates nothing. LocRib keeps one append-only slot per prefix.
//
// Enumeration-order contract: prefixes_from() and prefixes() return prefixes
// in ascending pack(prefix) order, read off the sorted prefix directories.
// The simulation's event order (and therefore the golden trace) depends on
// this order, because session resets and export-tap replays walk it, so it
// is defined by the prefixes alone: it does not depend on the
// install/withdraw history or on any standard-library container layout.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/message.hpp"
#include "topology/as_graph.hpp"

namespace because::bgp {

struct AdjRibInEntry {
  Route route;
  bool suppressed = false;  ///< RFD-suppressed: present but unusable
};

/// One usable candidate filled in by AdjRibIn::usable().
struct RibCandidate {
  topology::AsId neighbor = 0;
  const Route* route = nullptr;
};

class AdjRibIn {
 public:
  /// Declare a neighbor slot (rows are sized from these). The Router calls
  /// this from connect(); adding a neighbor after routes exist rebuilds the
  /// slab, which is fine at wiring time and rare after.
  void add_neighbor(topology::AsId neighbor);

  /// Install/replace the route from `neighbor`. Preserves nothing from a
  /// previous entry; the caller supplies the suppression state.
  void install(topology::AsId neighbor, const Route& route, bool suppressed);

  /// Remove the route from `neighbor` for `prefix`. Returns true if present.
  bool withdraw(topology::AsId neighbor, const Prefix& prefix);

  /// Update only the suppression mark; no-op if the route is absent.
  void set_suppressed(topology::AsId neighbor, const Prefix& prefix, bool value);

  const AdjRibInEntry* find(topology::AsId neighbor, const Prefix& prefix) const;

  /// Fill `out` (cleared first) with all usable (non-suppressed) candidate
  /// routes for `prefix`. Route pointers stay valid until the next install().
  void usable(const Prefix& prefix, std::vector<RibCandidate>& out) const;

  /// Fill `out` (cleared first) with the prefixes currently known from
  /// `neighbor` (suppressed entries included), in ascending pack() order.
  void prefixes_from(topology::AsId neighbor, std::vector<Prefix>& out) const;

  /// Exact (neighbor, prefix) announcement memory for RFD classification:
  /// survives withdrawals and session resets, and unlike the old 64-bit
  /// digest set it cannot collide two distinct keys.
  void note_seen(topology::AsId neighbor, const Prefix& prefix);
  bool seen(topology::AsId neighbor, const Prefix& prefix) const;

  std::size_t route_count() const { return route_count_; }

  // One-entry-memo effectiveness (row/slot lookups). Flushed to the obs
  // registry by ~Router — AdjRibIn itself must stay destructor-free so Router
  // remains movable.
  std::uint64_t memo_hits() const { return memo_hits_; }
  std::uint64_t memo_misses() const { return memo_misses_; }

 private:
  /// One (prefix row, neighbor slot) cell of the flat slab. `seen` is the
  /// sticky announcement memory; occupancy lives in the row bitmaps.
  struct Cell {
    AdjRibInEntry entry;
    bool seen = false;
  };

  std::size_t slot_of(topology::AsId neighbor) const;  // SIZE_MAX = unknown
  std::uint32_t row_of(const Prefix& prefix);          // creates the row
  std::ptrdiff_t find_row(const Prefix& prefix) const; // -1 = absent
  void set_bit(std::vector<std::uint64_t>& bits, std::uint32_t row,
               std::size_t slot, bool value);
  bool test_bit(const std::vector<std::uint64_t>& bits, std::uint32_t row,
                std::size_t slot) const;

  std::vector<topology::AsId> neighbor_ids_;  // sorted; index = slot
  std::size_t stride_ = 0;                    // cells per row
  std::size_t words_ = 0;                     // bitmap words per row
  /// Sorted (pack(prefix), row) directory; rows are allocated append-only so
  /// directory inserts never move cells.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> rows_;
  std::vector<Cell> cells_;                   // row * stride_ + slot
  std::vector<std::uint64_t> occupied_;       // row * words_ bitmaps
  std::vector<std::uint64_t> usable_;
  /// One-entry lookup memos. Receive -> decision touches the same
  /// (neighbor, prefix) several times per event, and both mappings are
  /// stable once created (rows are append-only; slots only change in
  /// add_neighbor, which resets the memo), so these are pure caches with no
  /// behavioural footprint.
  mutable std::uint64_t cached_row_key_ = ~std::uint64_t{0};
  mutable std::uint32_t cached_row_ = 0;
  mutable topology::AsId cached_slot_id_ = 0;
  mutable std::size_t cached_slot_ = static_cast<std::size_t>(-1);
  mutable std::uint64_t memo_hits_ = 0;
  mutable std::uint64_t memo_misses_ = 0;
  std::size_t route_count_ = 0;
};

/// Best route selected for a prefix.
struct Selected {
  /// Neighbor the route was learned from; nullopt for self-originated routes.
  std::optional<topology::AsId> neighbor;
  Route route;
};

class LocRib {
 public:
  /// Install/replace the best route. Returns the stored entry, so decision
  /// code can propagate without an immediate find() of what it just wrote.
  const Selected* select(const Prefix& prefix, const Selected& selected);
  bool remove(const Prefix& prefix);
  const Selected* find(const Prefix& prefix) const;

  /// Fill `out` (cleared first) with all selected prefixes, in ascending
  /// pack() order (see the order contract above).
  void prefixes(std::vector<Prefix>& out) const;

  std::size_t size() const { return size_; }

  // One-entry-memo effectiveness; flushed by ~Router (see AdjRibIn note).
  std::uint64_t memo_hits() const { return memo_hits_; }
  std::uint64_t memo_misses() const { return memo_misses_; }

 private:
  std::ptrdiff_t find_slot(const Prefix& prefix) const;  // -1 = absent

  /// Sorted (pack(prefix), slot) directory; slots are append-only.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> slots_index_;
  std::vector<Selected> slots_;
  std::vector<char> occupied_;
  /// One-entry memo of the last (pack(prefix), slot) hit; slots are
  /// append-only so a cached mapping can never go stale.
  mutable std::uint64_t cached_key_ = ~std::uint64_t{0};
  mutable std::uint32_t cached_slot_ = 0;
  mutable std::uint64_t memo_hits_ = 0;
  mutable std::uint64_t memo_misses_ = 0;
  std::size_t size_ = 0;
};

}  // namespace because::bgp
