// AVX2 kernel definitions: four observation lanes per step (the ll_sum fold
// keeps its eight fold lanes in two registers).
//
// Compiled with -mavx2 -ffp-contract=off and WITHOUT -mfma: the probability
// affine map stays a separate IEEE multiply and add, so every lane computes
// exactly the scalar arithmetic (see kernels.hpp for the full determinism
// contract). Per-path products gather q through the dataset's lane-blocked
// layout; padded positions gather the q[sentinel] == 1.0 identity.
//
// GCC's gather intrinsics seed their destination with _mm256_undefined_pd(),
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

/// Sign-bit lane masks for the label blend, indexed by a block's 4 label
/// bits (lane l takes entry bit l).
struct MaskLut {
  alignas(32) std::uint64_t rows[16][4];
};
constexpr MaskLut build_mask_lut() {
  MaskLut lut{};
  for (std::size_t bits = 0; bits < 16; ++bits)
    for (std::size_t lane = 0; lane < 4; ++lane)
      lut.rows[bits][lane] = ((bits >> lane) & 1u) ? ~std::uint64_t{0} : 0;
  return lut;
}
constexpr MaskLut kMaskLut = build_mask_lut();

inline __m256d mask_for(std::uint64_t bits) {
  __m256i raw;
  std::memcpy(&raw, kMaskLut.rows[bits & 0xF], 32);
  return _mm256_castsi256_pd(raw);
}

inline __m128i load_idx4(const std::uint32_t* p) {
  __m128i v;
  std::memcpy(&v, p, 16);
  return v;
}

/// Per-lane even/odd product of one full block (4 paths): lane l reproduces
/// scalar_pair_product for path base+l bit-for-bit.
inline __m256d block_pair_product(const labeling::BlockedLayout& layout,
                                  std::size_t block, const double* q) {
  const std::uint32_t* base = layout.idx.data() + layout.block_offsets[block];
  const std::size_t positions = layout.positions(block);
  __m256d acc_a = _mm256_set1_pd(1.0);
  __m256d acc_b = _mm256_set1_pd(1.0);
  for (std::size_t pos = 0; pos < positions; pos += 2) {
    acc_a = _mm256_mul_pd(
        acc_a, _mm256_i32gather_pd(q, load_idx4(base + pos * 4), 8));
    acc_b = _mm256_mul_pd(
        acc_b, _mm256_i32gather_pd(q, load_idx4(base + (pos + 1) * 4), 8));
  }
  return _mm256_mul_pd(acc_a, acc_b);
}

/// prob = max(kProbFloor, c0[label] + c1[label] * prod), label-blended.
inline __m256d block_probs(__m256d prod, __m256d label_mask,
                           const ObsCoeffs& c) {
  const __m256d c0 = _mm256_blendv_pd(_mm256_set1_pd(c.c0[0]),
                                      _mm256_set1_pd(c.c0[1]), label_mask);
  const __m256d c1 = _mm256_blendv_pd(_mm256_set1_pd(c.c1[0]),
                                      _mm256_set1_pd(c.c1[1]), label_mask);
  const __m256d affine = _mm256_add_pd(c0, _mm256_mul_pd(c1, prod));
  return _mm256_max_pd(_mm256_set1_pd(kProbFloor), affine);
}

inline std::uint64_t block_label_bits(const std::uint64_t* labels,
                                      std::size_t j) {
  return (labels[j >> 6] >> (j & 63)) & 0xF;
}

/// Split [begin, end) into a scalar head up to the next block boundary, a
/// vector middle of full blocks, and a scalar tail (partial final block or
/// paths past the layout's full-block coverage).
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

void grad_weights_avx2(const DatasetView& d, const double* q,
                       const ObsCoeffs& c, std::size_t begin, std::size_t end,
                       double* out) {
  const labeling::BlockedLayout& layout = *d.blocked;
  const RangeSplit r = split_range(layout, begin, end);
  kScalarTable.grad_weights(d, q, c, begin, r.vec_begin, out);
  for (std::size_t j = r.vec_begin; j < r.vec_end; j += 4) {
    const __m256d prod = block_pair_product(layout, j / 4, q);
    const __m256d label_mask = mask_for(block_label_bits(d.labels, j));
    const __m256d probs = block_probs(prod, label_mask, c);
    const __m256d c1 = _mm256_blendv_pd(_mm256_set1_pd(c.c1[0]),
                                        _mm256_set1_pd(c.c1[1]), label_mask);
    // w = -c1 * (prod / prob): IEEE divide, then multiply by negated c1.
    const __m256d w = _mm256_mul_pd(_mm256_sub_pd(_mm256_setzero_pd(), c1),
                                    _mm256_div_pd(prod, probs));
    _mm256_storeu_pd(out + (j - begin), w);
  }
  kScalarTable.grad_weights(d, q, c, r.vec_end, end,
                            out + (r.vec_end - begin));
}

void path_products_avx2(const DatasetView& d, const double* q,
                        std::size_t begin, std::size_t end, double* out) {
  const labeling::BlockedLayout& layout = *d.blocked;
  const RangeSplit r = split_range(layout, begin, end);
  kScalarTable.path_products(d, q, begin, r.vec_begin, out);
  for (std::size_t j = r.vec_begin; j < r.vec_end; j += 4) {
    // Straight in-order product: one accumulator over the interleaved
    // even/odd streams preserves position order (0, 1, 2, ...) per lane.
    const std::uint32_t* base = layout.idx.data() + layout.block_offsets[j / 4];
    const std::size_t positions = layout.positions(j / 4);
    __m256d acc = _mm256_set1_pd(1.0);
    for (std::size_t pos = 0; pos < positions; ++pos)
      acc = _mm256_mul_pd(acc,
                          _mm256_i32gather_pd(q, load_idx4(base + pos * 4), 8));
    _mm256_storeu_pd(out + (j - begin), acc);
  }
  kScalarTable.path_products(d, q, r.vec_end, end,
                             out + (r.vec_end - begin));
}

double ll_sum_avx2(const DatasetView& d, const double* q,
                   const ObsCoeffs& c) {
  const labeling::BlockedLayout& layout = *d.sorted;  // width 4
  const __m256d direct = _mm256_set1_pd(kFoldDirectLog);
  const __m256d flush = _mm256_set1_pd(kFoldFlush);
  double total[kFoldLanes] = {0.0};
  double acc[kFoldLanes];
  for (double& a : acc) a = 1.0;
  __m256d facc_lo = _mm256_loadu_pd(acc);
  __m256d facc_hi = _mm256_loadu_pd(acc + 4);
  // One fold row = two consecutive width-4 blocks (8 perm entries), so the
  // lane partition matches the scalar and AVX-512 sweeps exactly.
  const std::size_t pairs = layout.blocks() / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    const __m256d prod_lo = block_pair_product(layout, 2 * p, q);
    const __m256d prod_hi = block_pair_product(layout, 2 * p + 1, q);
    const __m256d probs_lo =
        block_probs(prod_lo, mask_for(layout.lane_labels[2 * p] & 0xF), c);
    const __m256d probs_hi =
        block_probs(prod_hi, mask_for(layout.lane_labels[2 * p + 1] & 0xF), c);
    const __m256d next_lo = _mm256_mul_pd(facc_lo, probs_lo);
    const __m256d next_hi = _mm256_mul_pd(facc_hi, probs_hi);
    const __m256d slow_lo =
        _mm256_or_pd(_mm256_cmp_pd(probs_lo, direct, _CMP_LT_OQ),
                     _mm256_cmp_pd(next_lo, flush, _CMP_LT_OQ));
    const __m256d slow_hi =
        _mm256_or_pd(_mm256_cmp_pd(probs_hi, direct, _CMP_LT_OQ),
                     _mm256_cmp_pd(next_hi, flush, _CMP_LT_OQ));
    if (_mm256_movemask_pd(_mm256_or_pd(slow_lo, slow_hi)) == 0) {
      facc_lo = next_lo;
      facc_hi = next_hi;
      continue;
    }
    double row[kFoldLanes];
    _mm256_storeu_pd(row, probs_lo);
    _mm256_storeu_pd(row + 4, probs_hi);
    _mm256_storeu_pd(acc, facc_lo);
    _mm256_storeu_pd(acc + 4, facc_hi);
    for (std::size_t k = 0; k < kFoldLanes; ++k)
      fold_one(row[k], acc[k], total[k]);
    facc_lo = _mm256_loadu_pd(acc);
    facc_hi = _mm256_loadu_pd(acc + 4);
  }
  _mm256_storeu_pd(acc, facc_lo);
  _mm256_storeu_pd(acc + 4, facc_hi);
  // A leftover width-4 block (blocks odd) and the unblocked tail replay
  // the identical per-observation sequence from perm position pairs * 8.
  ll_sum_fold_range(d, q, c, pairs * kFoldLanes, d.paths, acc, total);
  return ll_sum_combine(acc, total);
}

void grad_accumulate_avx2(const DatasetView& d, const TransposedView& t,
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
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t pos = 0; pos < positions; ++pos)
      acc = _mm256_add_pd(
          acc, _mm256_i32gather_pd(weights, load_idx4(base + pos * 4), 8));
    _mm256_storeu_pd(grad + b * 4, acc);
  }
  for (std::size_t i = layout.covered_paths(); i < t.nodes; ++i) {
    double s = 0.0;
    for (std::size_t e = t.offsets[i]; e < t.offsets[i + 1]; ++e)
      s += weights[t.obs[e]];
    grad[i] = s;
  }
}

void clamp_q_avx2(const double* p, double* q, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d floor = _mm256_set1_pd(kQFloor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_sub_pd(one, _mm256_loadu_pd(p + i));
    _mm256_storeu_pd(q + i,
                     _mm256_max_pd(floor, _mm256_min_pd(one, v)));
  }
  kScalarTable.clamp_q(p + i, q + i, n - i);
}

}  // namespace

const KernelTable kAvx2Table = {
    clamp_q_avx2,         grad_weights_avx2, path_products_avx2,
    ll_sum_avx2,          grad_accumulate_avx2,
    /*lane_width=*/4,
};

}  // namespace because::core::kernels
