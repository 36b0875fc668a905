// AVX-512 kernel definitions: eight observation lanes per step.
//
// Compiled with -mavx512f -mavx512dq -mavx512vl -ffp-contract=off and
// WITHOUT -mfma, mirroring the AVX2 translation unit: all lane arithmetic
// is the exact scalar IEEE sequence (see kernels.hpp). Label selection uses
// the native __mmask8 blend, so a block's 8 label bits are the mask verbatim.
//
// GCC's gather intrinsics seed their destination with _mm512_undefined_pd(),
// which -Wmaybe-uninitialized reports at every inlined call site (GCC bug
// 105593); the merge mask is all-ones so no undefined lane survives.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "core/kernels/kernels.hpp"
#include "labeling/dataset.hpp"

namespace because::core::kernels {
namespace {

inline __m256i load_idx8(const std::uint32_t* p) {
  __m256i v;
  std::memcpy(&v, p, 32);
  return v;
}

/// Per-lane even/odd product of one full block (8 paths): lane l reproduces
/// scalar_pair_product for path base+l bit-for-bit.
inline __m512d block_pair_product(const labeling::BlockedLayout& layout,
                                  std::size_t block, const double* q) {
  const std::uint32_t* base = layout.idx.data() + layout.block_offsets[block];
  const std::size_t positions = layout.positions(block);
  __m512d acc_a = _mm512_set1_pd(1.0);
  __m512d acc_b = _mm512_set1_pd(1.0);
  for (std::size_t pos = 0; pos < positions; pos += 2) {
    acc_a = _mm512_mul_pd(
        acc_a, _mm512_i32gather_pd(load_idx8(base + pos * 8), q, 8));
    acc_b = _mm512_mul_pd(
        acc_b, _mm512_i32gather_pd(load_idx8(base + (pos + 1) * 8), q, 8));
  }
  return _mm512_mul_pd(acc_a, acc_b);
}

/// prob = max(kProbFloor, c0[label] + c1[label] * prod), label bit l = lane l.
inline __m512d block_probs(__m512d prod, __mmask8 labels, const ObsCoeffs& c) {
  const __m512d c0 = _mm512_mask_blend_pd(labels, _mm512_set1_pd(c.c0[0]),
                                          _mm512_set1_pd(c.c0[1]));
  const __m512d c1 = _mm512_mask_blend_pd(labels, _mm512_set1_pd(c.c1[0]),
                                          _mm512_set1_pd(c.c1[1]));
  const __m512d affine = _mm512_add_pd(c0, _mm512_mul_pd(c1, prod));
  return _mm512_max_pd(_mm512_set1_pd(kProbFloor), affine);
}

inline __mmask8 block_label_bits(const std::uint64_t* labels, std::size_t j) {
  return static_cast<__mmask8>((labels[j >> 6] >> (j & 63)) & 0xFF);
}

struct RangeSplit {
  std::size_t vec_begin, vec_end;
};
inline RangeSplit split_range(const labeling::BlockedLayout& layout,
                              std::size_t begin, std::size_t end) {
  const std::size_t w = layout.width;
  const std::size_t head = std::min(end, (begin + w - 1) / w * w);
  const std::size_t covered = std::min(end, layout.covered_paths());
  const std::size_t tail = covered > head ? covered / w * w : head;
  return {head, std::max(head, tail)};
}

void grad_weights_avx512(const DatasetView& d, const double* q,
                         const ObsCoeffs& c, std::size_t begin,
                         std::size_t end, double* out) {
  const labeling::BlockedLayout& layout = *d.blocked;
  const RangeSplit r = split_range(layout, begin, end);
  kScalarTable.grad_weights(d, q, c, begin, r.vec_begin, out);
  for (std::size_t j = r.vec_begin; j < r.vec_end; j += 8) {
    const __m512d prod = block_pair_product(layout, j / 8, q);
    const __mmask8 labels = block_label_bits(d.labels, j);
    const __m512d probs = block_probs(prod, labels, c);
    const __m512d c1 = _mm512_mask_blend_pd(labels, _mm512_set1_pd(c.c1[0]),
                                            _mm512_set1_pd(c.c1[1]));
    // w = -c1 * (prod / prob): IEEE divide, then multiply by negated c1.
    const __m512d w = _mm512_mul_pd(_mm512_sub_pd(_mm512_setzero_pd(), c1),
                                    _mm512_div_pd(prod, probs));
    _mm512_storeu_pd(out + (j - begin), w);
  }
  kScalarTable.grad_weights(d, q, c, r.vec_end, end,
                            out + (r.vec_end - begin));
}

void path_products_avx512(const DatasetView& d, const double* q,
                          std::size_t begin, std::size_t end, double* out) {
  const labeling::BlockedLayout& layout = *d.blocked;
  const RangeSplit r = split_range(layout, begin, end);
  kScalarTable.path_products(d, q, begin, r.vec_begin, out);
  for (std::size_t j = r.vec_begin; j < r.vec_end; j += 8) {
    // Straight in-order product, matching scalar_seq_product per lane.
    const std::uint32_t* base = layout.idx.data() + layout.block_offsets[j / 8];
    const std::size_t positions = layout.positions(j / 8);
    __m512d acc = _mm512_set1_pd(1.0);
    for (std::size_t pos = 0; pos < positions; ++pos)
      acc = _mm512_mul_pd(acc,
                          _mm512_i32gather_pd(load_idx8(base + pos * 8), q, 8));
    _mm512_storeu_pd(out + (j - begin), acc);
  }
  kScalarTable.path_products(d, q, r.vec_end, end,
                             out + (r.vec_end - begin));
}

double ll_sum_avx512(const DatasetView& d, const double* q,
                     const ObsCoeffs& c) {
  const labeling::BlockedLayout& layout = *d.sorted;
  const __m512d direct = _mm512_set1_pd(kFoldDirectLog);
  const __m512d flush = _mm512_set1_pd(kFoldFlush);
  double total[kFoldLanes] = {0.0};
  double acc[kFoldLanes];
  for (double& a : acc) a = 1.0;
  __m512d facc = _mm512_loadu_pd(acc);
  const std::size_t blocks = layout.blocks();
  for (std::size_t b = 0; b < blocks; ++b) {
    const __m512d prod = block_pair_product(layout, b, q);
    const __m512d probs =
        block_probs(prod, static_cast<__mmask8>(layout.lane_labels[b]), c);
    const __m512d next = _mm512_mul_pd(facc, probs);
    const __mmask8 slow =
        static_cast<__mmask8>(_mm512_cmp_pd_mask(probs, direct, _CMP_LT_OQ) |
                              _mm512_cmp_pd_mask(next, flush, _CMP_LT_OQ));
    if (slow == 0) {
      facc = next;
      continue;
    }
    double row[kFoldLanes];
    _mm512_storeu_pd(row, probs);
    _mm512_storeu_pd(acc, facc);
    for (std::size_t k = 0; k < kFoldLanes; ++k)
      fold_one(row[k], acc[k], total[k]);
    facc = _mm512_loadu_pd(acc);
  }
  _mm512_storeu_pd(acc, facc);
  ll_sum_fold_range(d, q, c, layout.covered_paths(), d.paths, acc, total);
  return ll_sum_combine(acc, total);
}

void grad_accumulate_avx512(const DatasetView& d, const TransposedView& t,
                            const double* weights, double* grad) {
  (void)d;
  const labeling::BlockedLayout& layout = *t.blocked;
  const std::size_t blocks = layout.blocks();
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint32_t* base = layout.idx.data() + layout.block_offsets[b];
    const std::size_t positions = layout.positions(b);
    // Single accumulator per lane, strictly ascending observation order —
    // the scalar scatter's addition sequence per node. Padded positions
    // gather weights[paths] == -0.0, an exact additive identity.
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t pos = 0; pos < positions; ++pos)
      acc = _mm512_add_pd(
          acc, _mm512_i32gather_pd(load_idx8(base + pos * 8), weights, 8));
    _mm512_storeu_pd(grad + b * 8, acc);
  }
  for (std::size_t i = layout.covered_paths(); i < t.nodes; ++i) {
    double s = 0.0;
    for (std::size_t e = t.offsets[i]; e < t.offsets[i + 1]; ++e)
      s += weights[t.obs[e]];
    grad[i] = s;
  }
}

void clamp_q_avx512(const double* p, double* q, std::size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d floor = _mm512_set1_pd(kQFloor);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_sub_pd(one, _mm512_loadu_pd(p + i));
    _mm512_storeu_pd(q + i, _mm512_max_pd(floor, _mm512_min_pd(one, v)));
  }
  kScalarTable.clamp_q(p + i, q + i, n - i);
}

}  // namespace

const KernelTable kAvx512Table = {
    clamp_q_avx512,         grad_weights_avx512, path_products_avx512,
    ll_sum_avx512,          grad_accumulate_avx512,
    /*lane_width=*/8,
};

}  // namespace because::core::kernels
