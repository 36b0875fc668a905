#include "core/metropolis.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace because::core {

namespace detail {

/// Handles any number of overshoots (sigma < 1 keeps it to one in practice).
double reflect_into_unit(double x) {
  if (!std::isfinite(x)) return std::numeric_limits<double>::quiet_NaN();
  while (x < 0.0 || x > 1.0) {
    if (x < 0.0) x = -x;
    if (x > 1.0) x = 2.0 - x;
  }
  return x;
}

}  // namespace detail

using detail::reflect_into_unit;

void MetropolisConfig::validate() const {
  if (samples == 0) throw std::invalid_argument("MetropolisConfig: samples == 0");
  if (thin == 0) throw std::invalid_argument("MetropolisConfig: thin == 0");
  if (proposal_sigma <= 0.0 || proposal_sigma >= 1.0)
    throw std::invalid_argument("MetropolisConfig: sigma outside (0,1)");
}

namespace {

/// The observations grouped by identical (ordered row, label). Rows with
/// the same dense-index sequence in path order and the same label have the
/// same product bit for bit (path_products is an in-order product, so the
/// same set in another order is another group) and the same log-likelihood
/// term, so a proposal takes one log per group containing the coordinate.
struct RowGroups {
  std::vector<std::uint32_t> first_row;  ///< representative observation
  std::vector<std::uint8_t> shows;       ///< the group's label
  /// Per coordinate i, the groups containing i in first-seen order:
  /// groups[group_offsets[i] .. group_offsets[i + 1]).
  std::vector<std::uint32_t> group_offsets;
  std::vector<std::uint32_t> groups;
  /// Parallel to the transposed CSR (observations_with(i), ascending ids):
  /// each observation's index into its coordinate's group list.
  std::vector<std::uint32_t> local;
};

std::uint64_t row_hash(std::span<const std::uint32_t> row, bool shows) {
  std::uint64_t h = shows ? 0x9e3779b97f4a7c15ULL : 0x2545f4914f6cdd1dULL;
  for (std::uint32_t v : row) {
    h ^= v;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

RowGroups group_rows(const labeling::PathDataset& data) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  const std::size_t paths = data.path_count();
  RowGroups out;
  std::vector<std::uint32_t> group_of(paths);
  std::vector<std::uint64_t> group_hash;
  // Open addressing over group ids; a hash hit is confirmed by comparing
  // the row exactly against the group's first row.
  const std::size_t mask = std::bit_ceil(2 * paths + 1) - 1;
  std::vector<std::uint32_t> slots(mask + 1, kNone);
  for (std::size_t j = 0; j < paths; ++j) {
    const std::span<const std::uint32_t> row = data.path_nodes(j);
    const bool shows = data.shows_property(j);
    const std::uint64_t h = row_hash(row, shows);
    std::size_t slot = h & mask;
    for (; slots[slot] != kNone; slot = (slot + 1) & mask) {
      const std::uint32_t g = slots[slot];
      if (group_hash[g] == h && (out.shows[g] != 0) == shows &&
          std::ranges::equal(row, data.path_nodes(out.first_row[g])))
        break;
    }
    if (slots[slot] == kNone) {
      slots[slot] = static_cast<std::uint32_t>(out.first_row.size());
      out.first_row.push_back(static_cast<std::uint32_t>(j));
      out.shows.push_back(shows ? 1 : 0);
      group_hash.push_back(h);
    }
    group_of[j] = slots[slot];
  }

  const std::size_t dim = data.as_count();
  const std::span<const std::uint32_t> offsets = data.transposed_offsets();
  const std::span<const std::uint32_t> obs = data.transposed_obs();
  out.group_offsets.assign(dim + 1, 0);
  out.local.resize(obs.size());
  std::vector<std::uint32_t> seen_at(out.first_row.size(), kNone);
  std::vector<std::uint32_t> local_of(out.first_row.size());
  for (std::size_t i = 0; i < dim; ++i) {
    const std::size_t begin = out.groups.size();
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const std::uint32_t g = group_of[obs[e]];
      if (seen_at[g] != i) {
        seen_at[g] = static_cast<std::uint32_t>(i);
        local_of[g] = static_cast<std::uint32_t>(out.groups.size() - begin);
        out.groups.push_back(g);
      }
      out.local[e] = local_of[g];
    }
    out.group_offsets[i + 1] = static_cast<std::uint32_t>(out.groups.size());
  }
  return out;
}

}  // namespace

Chain run_metropolis(const Likelihood& likelihood, const Prior& prior,
                     const MetropolisConfig& config) {
  config.validate();
  const std::size_t dim = likelihood.dim();
  if (dim == 0) throw std::invalid_argument("run_metropolis: empty dataset");
  const labeling::PathDataset& data = likelihood.data();

  stats::Rng rng(config.seed);
  std::vector<double> p(dim);
  for (double& x : p) x = prior.sample_coord(rng);

  const RowGroups rows = group_rows(data);
  const std::span<const std::uint32_t> coord_offsets = data.transposed_offsets();
  const std::size_t n_groups = rows.first_row.size();

  // The current state, cached: each group's product and log-likelihood
  // term, and each coordinate's prior log density.
  std::vector<double> group_prod(n_groups);
  std::vector<double> group_log(n_groups);
  const auto refresh = [&] {
    const std::vector<double> products = likelihood.products(p);
    for (std::size_t g = 0; g < n_groups; ++g) {
      group_prod[g] = products[rows.first_row[g]];
      group_log[g] =
          likelihood.observation_log_lik(group_prod[g], rows.shows[g] != 0);
    }
  };
  refresh();
  std::vector<double> prior_log(dim);
  for (std::size_t i = 0; i < dim; ++i) prior_log[i] = prior.log_density_coord(p[i]);

  // Per-proposal scratch, indexed by position in a coordinate's group list.
  std::vector<double> new_log(n_groups);
  std::vector<double> term(n_groups);

  Chain chain(dim);
  chain.reserve(config.samples);
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t kept_proposals = 0;
  std::uint64_t kept_accepts = 0;

  const std::size_t total_sweeps = config.burn_in + config.samples * config.thin;
  for (std::size_t sweep = 0; sweep < total_sweeps; ++sweep) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double old_p = p[i];
      const double new_p =
          reflect_into_unit(old_p + rng.normal(0.0, config.proposal_sigma));
      if (!std::isfinite(new_p)) {
        ++proposals;  // non-finite proposal: reject outright
        continue;
      }
      const double ratio = clamp_q(new_p) / clamp_q(old_p);

      // One log per group containing coordinate i ...
      const std::span<const std::uint32_t> groups(
          rows.groups.data() + rows.group_offsets[i],
          rows.group_offsets[i + 1] - rows.group_offsets[i]);
      for (std::size_t l = 0; l < groups.size(); ++l) {
        const std::uint32_t g = groups[l];
        new_log[l] = likelihood.observation_log_lik(group_prod[g] * ratio,
                                                    rows.shows[g] != 0);
        term[l] = new_log[l] - group_log[g];
      }
      // ... and one addition per observation, in ascending observation
      // order: repeated addition (not term * multiplicity) keeps the sum,
      // and so every accept decision, that of a per-observation sweep.
      const double new_prior = prior.log_density_coord(new_p);
      double delta = new_prior - prior_log[i];
      for (std::size_t e = coord_offsets[i]; e < coord_offsets[i + 1]; ++e)
        delta += term[rows.local[e]];

      BECAUSE_ASSERT(new_p >= 0.0 && new_p <= 1.0,
                     "reflected proposal left [0,1]: " << new_p);
      BECAUSE_ASSERT(!std::isnan(delta),
                     "log-acceptance delta is NaN at coord " << i);
      ++proposals;
      if (sweep >= config.burn_in) ++kept_proposals;
      if (delta >= 0.0 || rng.uniform() < std::exp(delta)) {
        ++accepts;
        if (sweep >= config.burn_in) ++kept_accepts;
        p[i] = new_p;
        prior_log[i] = new_prior;
        for (std::size_t l = 0; l < groups.size(); ++l) {
          group_prod[groups[l]] *= ratio;
          group_log[groups[l]] = new_log[l];
        }
      }
    }

    // Refresh the cached products periodically: the multiplicative updates
    // accumulate floating-point drift over long chains.
    if ((sweep & 0x3f) == 0x3f) refresh();

    if (sweep >= config.burn_in &&
        (sweep - config.burn_in) % config.thin == config.thin - 1) {
      chain.push(p);
    }
  }

  chain.acceptance_rate =
      proposals == 0 ? 0.0
                     : static_cast<double>(accepts) / static_cast<double>(proposals);
  chain.kept_acceptance_rate =
      kept_proposals == 0 ? 0.0
                          : static_cast<double>(kept_accepts) /
                                static_cast<double>(kept_proposals);
  if (obs::enabled()) {
    obs::add(obs::Counter::kMhProposals, proposals);
    obs::add(obs::Counter::kMhAccepts, accepts);
  }
  return chain;
}

}  // namespace because::core
