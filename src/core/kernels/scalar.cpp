// Scalar kernel definitions: the always-correct dispatch fallback and the
// reference arithmetic every vector level must reproduce bit-for-bit.
//
// Compiled with baseline flags only (no -m switches), so these run on any
// x86-64 (or non-x86) host and no FMA contraction is possible. The vector
// translation units also call scalar_pair_product / scalar_seq_product and
// the edge kernels below for block-unaligned range edges.
#include <algorithm>
#include <cstdint>

#include "core/kernels/kernels.hpp"
#include "labeling/dataset.hpp"

namespace because::core::kernels {

double scalar_pair_product(const std::uint32_t* nodes, std::size_t lo,
                           std::size_t hi, const double* q) {
  // Two interleaved partial products halve the multiply dependency chain;
  // the odd tail element folds into the `a` stream, matching the original
  // CSR kernel (and the vector lanes) exactly.
  double a = 1.0, b = 1.0;
  std::size_t k = lo;
  for (; k + 1 < hi; k += 2) {
    a *= q[nodes[k]];
    b *= q[nodes[k + 1]];
  }
  if (k < hi) a *= q[nodes[k]];
  return a * b;
}

double scalar_seq_product(const std::uint32_t* nodes, std::size_t lo,
                          std::size_t hi, const double* q) {
  double prod = 1.0;
  for (std::size_t k = lo; k < hi; ++k) prod *= q[nodes[k]];
  return prod;
}

namespace {

inline std::size_t label_of(const std::uint64_t* labels, std::size_t j) {
  return (labels[j >> 6] >> (j & 63)) & 1u;
}

void clamp_q_scalar(const double* p, double* q, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    q[i] = std::max(kQFloor, std::min(1.0, 1.0 - p[i]));
}

void grad_weights_scalar(const DatasetView& d, const double* q,
                         const ObsCoeffs& c, std::size_t begin,
                         std::size_t end, double* out) {
  for (std::size_t j = begin; j < end; ++j) {
    const double prod =
        scalar_pair_product(d.nodes, d.offsets[j], d.offsets[j + 1], q);
    const std::size_t label = label_of(d.labels, j);
    const double prob = std::max(kProbFloor, c.c0[label] + c.c1[label] * prod);
    out[j - begin] = -c.c1[label] * (prod / prob);
  }
}

void path_products_scalar(const DatasetView& d, const double* q,
                          std::size_t begin, std::size_t end, double* out) {
  for (std::size_t j = begin; j < end; ++j)
    out[j - begin] =
        scalar_seq_product(d.nodes, d.offsets[j], d.offsets[j + 1], q);
}

void grad_accumulate_scalar(const DatasetView& d, const TransposedView& t,
                            const double* weights, double* grad) {
  // The forward path-order scatter (the reference accumulation order): the
  // transposed kernels reproduce it node-by-node because each node's
  // observation list is ascending.
  for (std::size_t i = 0; i < t.nodes; ++i) grad[i] = 0.0;
  for (std::size_t j = 0; j < d.paths; ++j) {
    const double w = weights[j];
    for (std::size_t e = d.offsets[j]; e < d.offsets[j + 1]; ++e)
      grad[d.nodes[e]] += w;
  }
}

double ll_sum_scalar(const DatasetView& d, const double* q,
                     const ObsCoeffs& c) {
  double total[kFoldLanes] = {0.0};
  double acc[kFoldLanes];
  for (double& a : acc) a = 1.0;
  ll_sum_fold_range(d, q, c, 0, d.paths, acc, total);
  return ll_sum_combine(acc, total);
}

}  // namespace

void ll_sum_fold_range(const DatasetView& d, const double* q,
                       const ObsCoeffs& c, std::size_t from, std::size_t to,
                       double* acc, double* total) {
  const std::uint32_t* perm = d.sorted->perm.data();
  for (std::size_t t = from; t < to; ++t) {
    const std::size_t j = perm[t];
    const double prod =
        scalar_pair_product(d.nodes, d.offsets[j], d.offsets[j + 1], q);
    const std::size_t label = label_of(d.labels, j);
    const double prob = std::max(kProbFloor, c.c0[label] + c.c1[label] * prod);
    fold_one(prob, acc[t % kFoldLanes], total[t % kFoldLanes]);
  }
}

const KernelTable kScalarTable = {
    clamp_q_scalar,         grad_weights_scalar, path_products_scalar,
    ll_sum_scalar,          grad_accumulate_scalar,
    /*lane_width=*/0,
};

}  // namespace because::core::kernels
