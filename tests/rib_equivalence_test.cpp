// Contract tests for the RIBs against a test-local ordered model.
//
// The model is a std::map keyed by pack(prefix), so its iteration order is
// the enumeration-order contract of bgp/rib.hpp: prefixes_from() and
// prefixes() return prefixes in ascending pack() order. Long randomized
// operation sequences must agree with the model on every query — find,
// usable (as a set; its order feeds a full scan in the decision process,
// not the trace), seen, the counts, and both enumerations including their
// order. A separate case pins history independence: the same final contents
// reached through different install/withdraw orders enumerate identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "bgp/rib.hpp"
#include "stats/rng.hpp"

namespace because {
namespace {

using bgp::AdjRibIn;
using bgp::AdjRibInEntry;
using bgp::LocRib;
using bgp::Prefix;
using bgp::RibCandidate;
using bgp::Route;

Route make_route(const Prefix& prefix, sim::Time ts) {
  return Route{prefix, topology::kEmptyPath, ts};
}

/// Model of one Adj-RIB-In cell: the route's timestamp and suppression mark.
struct ModelEntry {
  sim::Time ts = 0;
  bool suppressed = false;
};

/// Per-neighbor ordered maps keyed by pack(prefix), plus the sticky
/// announcement memory.
struct AdjModel {
  std::map<topology::AsId, std::map<std::uint64_t, ModelEntry>> routes;
  std::set<std::pair<topology::AsId, std::uint64_t>> seen;

  std::size_t route_count() const {
    std::size_t n = 0;
    for (const auto& [_, by_prefix] : routes) n += by_prefix.size();
    return n;
  }
  std::vector<Prefix> prefixes_from(topology::AsId neighbor) const {
    std::vector<Prefix> out;
    const auto it = routes.find(neighbor);
    if (it == routes.end()) return out;
    for (const auto& [key, _] : it->second) out.push_back(bgp::unpack_prefix(key));
    return out;
  }
};

using UsableSet = std::vector<std::tuple<topology::AsId, Prefix, sim::Time>>;

UsableSet usable_set(const AdjRibIn& rib, const Prefix& prefix) {
  std::vector<RibCandidate> scratch;
  rib.usable(prefix, scratch);
  UsableSet out;
  for (const RibCandidate& c : scratch)
    out.emplace_back(c.neighbor, c.route->prefix, c.route->beacon_timestamp);
  std::sort(out.begin(), out.end());
  return out;
}

UsableSet usable_set(const AdjModel& model, const Prefix& prefix) {
  UsableSet out;
  for (const auto& [neighbor, by_prefix] : model.routes) {
    const auto it = by_prefix.find(bgp::pack(prefix));
    if (it != by_prefix.end() && !it->second.suppressed)
      out.emplace_back(neighbor, prefix, it->second.ts);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Prefix> prefixes_from(const AdjRibIn& rib, topology::AsId neighbor) {
  std::vector<Prefix> out;
  rib.prefixes_from(neighbor, out);
  return out;
}

std::vector<Prefix> prefixes(const LocRib& rib) {
  std::vector<Prefix> out;
  rib.prefixes(out);
  return out;
}

TEST(RibEquivalence, AdjRibInMatchesPackOrderedModel) {
  AdjRibIn rib;
  AdjModel model;
  const std::vector<topology::AsId> neighbors = {3, 7, 11, 42};
  for (topology::AsId n : neighbors) rib.add_neighbor(n);
  // Listed out of pack order so insertion order and enumeration order
  // differ.
  const std::vector<Prefix> pool = {{9, 16}, {2, 25}, {1, 24}, {2, 24}, {0, 24}};

  stats::Rng rng(31);
  for (int step = 0; step < 2000; ++step) {
    const auto n = neighbors[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(neighbors.size() - 1)))];
    const auto p = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size() - 1)))];
    const std::uint64_t key = bgp::pack(p);
    switch (rng.uniform_int(0, 4)) {
      case 0: {
        const bool suppressed = rng.bernoulli(0.2);
        rib.install(n, make_route(p, step), suppressed);
        model.routes[n][key] = ModelEntry{step, suppressed};
        break;
      }
      case 1: {
        const auto it = model.routes.find(n);
        const bool present = it != model.routes.end() && it->second.erase(key) > 0;
        EXPECT_EQ(rib.withdraw(n, p), present);
        break;
      }
      case 2: {
        const bool value = rng.bernoulli(0.5);
        rib.set_suppressed(n, p, value);
        const auto it = model.routes.find(n);
        if (it != model.routes.end()) {
          const auto jt = it->second.find(key);
          if (jt != it->second.end()) jt->second.suppressed = value;
        }
        break;
      }
      case 3:
        rib.note_seen(n, p);
        model.seen.emplace(n, key);
        break;
      default:
        break;
    }
    const AdjRibInEntry* entry = rib.find(n, p);
    const auto it = model.routes.find(n);
    const ModelEntry* expected = nullptr;
    if (it != model.routes.end()) {
      const auto jt = it->second.find(key);
      if (jt != it->second.end()) expected = &jt->second;
    }
    ASSERT_EQ(entry == nullptr, expected == nullptr) << "step " << step;
    if (entry != nullptr) {
      EXPECT_EQ(entry->suppressed, expected->suppressed);
      EXPECT_EQ(entry->route.beacon_timestamp, expected->ts);
    }
    EXPECT_EQ(rib.route_count(), model.route_count());
    EXPECT_EQ(rib.seen(n, p), model.seen.count({n, key}) != 0);
    EXPECT_EQ(usable_set(rib, p), usable_set(model, p));
    EXPECT_EQ(prefixes_from(rib, n), model.prefixes_from(n)) << "step " << step;
  }
  for (topology::AsId n : neighbors)
    EXPECT_EQ(prefixes_from(rib, n), model.prefixes_from(n));
  EXPECT_TRUE(prefixes_from(rib, 99).empty());  // unknown neighbor
}

TEST(RibEquivalence, LocRibMatchesPackOrderedModel) {
  LocRib rib;
  std::map<std::uint64_t, bgp::Selected> model;
  const std::vector<Prefix> pool = {{5, 25}, {1, 24}, {2, 24}, {0, 24}};
  stats::Rng rng(33);
  for (int step = 0; step < 1000; ++step) {
    const auto p = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size() - 1)))];
    if (rng.bernoulli(0.6)) {
      const bgp::Selected sel{
          std::optional<topology::AsId>{static_cast<topology::AsId>(step % 5)},
          make_route(p, step)};
      rib.select(p, sel);
      model[bgp::pack(p)] = sel;
    } else {
      EXPECT_EQ(rib.remove(p), model.erase(bgp::pack(p)) > 0);
    }
    const bgp::Selected* found = rib.find(p);
    const auto it = model.find(bgp::pack(p));
    ASSERT_EQ(found == nullptr, it == model.end());
    if (found != nullptr) {
      EXPECT_EQ(found->neighbor, it->second.neighbor);
      EXPECT_EQ(found->route.beacon_timestamp, it->second.route.beacon_timestamp);
    }
    EXPECT_EQ(rib.size(), model.size());
    std::vector<Prefix> expected;
    for (const auto& [key, _] : model) expected.push_back(bgp::unpack_prefix(key));
    EXPECT_EQ(prefixes(rib), expected) << "step " << step;
  }
}

TEST(RibEquivalence, EnumerationIsHistoryIndependent) {
  // Same final contents, reached through opposite install orders and
  // different withdraw/re-install churn on the way.
  const std::vector<Prefix> pool = {{40, 24}, {3, 24}, {17, 22}, {3, 23},
                                    {250, 24}, {8, 24}, {64, 20}};
  const std::vector<topology::AsId> neighbors = {5, 9};

  AdjRibIn forward;
  AdjRibIn backward;
  LocRib loc_forward;
  LocRib loc_backward;
  for (topology::AsId n : neighbors) {
    forward.add_neighbor(n);
    backward.add_neighbor(n);
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Prefix& p = pool[i];
    forward.install(5, make_route(p, 1), false);
    forward.install(9, make_route(p, 1), i % 2 == 0);
    loc_forward.select(p, bgp::Selected{std::nullopt, make_route(p, 1)});
  }
  // Withdraw two prefixes, note one as seen only (a row with no route), and
  // bring one back.
  forward.withdraw(5, pool[1]);
  forward.withdraw(5, pool[4]);
  forward.note_seen(5, Prefix{99, 24});
  forward.install(5, make_route(pool[1], 2), false);
  loc_forward.remove(pool[2]);
  loc_forward.remove(pool[5]);
  loc_forward.select(pool[5], bgp::Selected{std::nullopt, make_route(pool[5], 2)});

  for (std::size_t i = pool.size(); i-- > 0;) {
    const Prefix& p = pool[i];
    backward.note_seen(5, p);
    if (i != 4) backward.install(5, make_route(p, 3), false);
    backward.install(9, make_route(p, 3), i % 2 == 0);
    if (i != 2) loc_backward.select(p, bgp::Selected{std::nullopt, make_route(p, 3)});
  }

  std::vector<Prefix> expected_from_5;
  std::vector<Prefix> expected_loc;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (i != 4) expected_from_5.push_back(pool[i]);
    if (i != 2) expected_loc.push_back(pool[i]);
  }
  const auto by_pack = [](const Prefix& a, const Prefix& b) {
    return bgp::pack(a) < bgp::pack(b);
  };
  std::sort(expected_from_5.begin(), expected_from_5.end(), by_pack);
  std::sort(expected_loc.begin(), expected_loc.end(), by_pack);
  std::vector<Prefix> expected_from_9 = pool;
  std::sort(expected_from_9.begin(), expected_from_9.end(), by_pack);

  EXPECT_EQ(prefixes_from(forward, 5), expected_from_5);
  EXPECT_EQ(prefixes_from(backward, 5), expected_from_5);
  EXPECT_EQ(prefixes_from(forward, 9), expected_from_9);
  EXPECT_EQ(prefixes_from(backward, 9), expected_from_9);
  EXPECT_EQ(prefixes(loc_forward), expected_loc);
  EXPECT_EQ(prefixes(loc_backward), expected_loc);
}

}  // namespace
}  // namespace because
