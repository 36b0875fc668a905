#include "core/likelihood.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/kernels/dispatch.hpp"
#include "core/kernels/kernels.hpp"

namespace because::core {

static_assert(kernels::kQFloor == Likelihood::kQFloor,
              "kernel q floor must match the Likelihood contract");
static_assert(kernels::kProbFloor == Likelihood::kProbFloor,
              "kernel probability floor must match the Likelihood contract");

namespace {

kernels::ObsCoeffs coeffs(const NoiseModel& noise) {
  // P(obs) = c0[label] + c1[label] * prod (branchless label select):
  //   shows: fs * prod + (1 - ms) * (1 - prod)
  //   clean: (1 - fs) * prod + ms * (1 - prod)
  const double fs = noise.false_signature;
  const double ms = noise.missed_signature;
  return {{ms, 1.0 - ms}, {(1.0 - fs) - ms, fs - (1.0 - ms)}};
}

/// Borrow the dataset's CSR arrays (plus its lane-blocked layout when the
/// table gathers) for the kernel calls.
kernels::DatasetView make_view(const labeling::PathDataset& data,
                               const kernels::KernelTable& table) {
  // The sorted layout's perm is width-independent, so the scalar level
  // borrows the width-8 build purely for the fold order.
  return {
      data.flat_nodes().data(),
      data.flat_offsets().data(),
      data.label_bits().data(),
      table.lane_width == 0 ? nullptr : &data.blocked(table.lane_width),
      data.path_count(),
      &data.blocked_sorted(table.lane_width == 0 ? 8 : table.lane_width),
  };
}

/// q = clamp(1 - p) with the gather sentinel appended: q[dim] == 1.0 so a
/// padded lane's multiply is an exact identity.
std::vector<double> clamped_q(std::span<const double> p,
                              const kernels::KernelTable& table) {
  std::vector<double> q(p.size() + 1);
  table.clamp_q(p.data(), q.data(), p.size());
  q[p.size()] = 1.0;
  return q;
}

/// Borrow the transposed CSR (plus its lane-blocked layout when the table
/// gathers) for the gradient-accumulation kernel.
kernels::TransposedView make_transposed(const labeling::PathDataset& data,
                                        const kernels::KernelTable& table) {
  return {
      data.transposed_offsets().data(),
      data.transposed_obs().data(),
      table.lane_width == 0 ? nullptr
                            : &data.blocked_transposed(table.lane_width),
      data.as_count(),
  };
}

}  // namespace

void NoiseModel::validate() const {
  if (false_signature < 0.0 || false_signature >= 0.5)
    throw std::invalid_argument("NoiseModel: false_signature outside [0, 0.5)");
  if (missed_signature < 0.0 || missed_signature >= 0.5)
    throw std::invalid_argument("NoiseModel: missed_signature outside [0, 0.5)");
}

Likelihood::Likelihood(const labeling::PathDataset& data, NoiseModel noise)
    : data_(data), noise_(noise) {
  noise_.validate();
}

std::vector<double> Likelihood::products(std::span<const double> p) const {
  if (p.size() != dim()) throw std::invalid_argument("Likelihood: dim mismatch");
  const kernels::KernelTable& table = kernels::table();
  const std::vector<double> q = clamped_q(p, table);
  const kernels::DatasetView view = make_view(data_, table);

  std::vector<double> prods(view.paths);
  table.path_products(view, q.data(), 0, view.paths, prods.data());
  return prods;
}

double Likelihood::observation_log_lik(double product, bool shows_property) const {
  const double fs = noise_.false_signature;
  const double ms = noise_.missed_signature;
  const double prob = shows_property
                          ? fs * product + (1.0 - ms) * (1.0 - product)
                          : (1.0 - fs) * product + ms * (1.0 - product);
  return std::log(std::max(kProbFloor, prob));
}

double Likelihood::log_likelihood(std::span<const double> p) const {
  if (p.size() != dim()) throw std::invalid_argument("Likelihood: dim mismatch");
  const kernels::KernelTable& table = kernels::table();
  const std::vector<double> q = clamped_q(p, table);
  const kernels::DatasetView view = make_view(data_, table);
  const kernels::ObsCoeffs c = coeffs(noise_);

  // sum_j log P_j in one fused kernel sweep: observations fold (in the
  // length-sorted layout's order) through 8 interleaved underflow-guarded
  // product lanes — a handful of transcendentals total, no staged
  // probability buffer, and the per-observation sequence is identical at
  // every dispatch level, so the result is bit-identical across levels.
  return table.ll_sum(view, q.data(), c);
}

void Likelihood::gradient(std::span<const double> p, std::span<double> grad) const {
  if (p.size() != dim() || grad.size() != dim())
    throw std::invalid_argument("Likelihood::gradient: dim mismatch");
  const kernels::KernelTable& table = kernels::table();
  const std::vector<double> q = clamped_q(p, table);
  const kernels::DatasetView view = make_view(data_, table);
  const std::size_t paths = data_.path_count();

  // P = c0[label] + c1[label] * prod; d log P / dp_k = -c1 * (prod / q_k) / P.
  // Materialize every observation's weight w = -c1 * prod / P, then sum per
  // node over the transposed CSR — bit-identical to a path-order scatter
  // but latency-friendly: per-node sums replace the store-forwarding-bound
  // scatter. The 1/q_k factor is applied per coordinate at the end.
  std::vector<double> weights(paths + 1);
  table.grad_weights(view, q.data(), coeffs(noise_), 0, paths, weights.data());
  weights[paths] = -0.0;  // additive identity for padded gather lanes
  table.grad_accumulate(view, make_transposed(data_, table), weights.data(),
                        grad.data());
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] /= q[i];
}

}  // namespace because::core
