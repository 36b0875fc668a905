// Likelihood kernel table: the per-ISA implementations behind
// core::Likelihood.
//
// Every entry point here has one scalar definition (scalar.cpp, baseline
// flags) and optional AVX2 / AVX-512 definitions compiled in their own
// translation units with the matching -m flags plus -ffp-contract=off.
// Dispatch is by table (dispatch.hpp): client code never touches intrinsics
// — the because-lint `raw-simd` rule bans <immintrin.h> outside this
// directory.
//
// Determinism contract: every kernel must be BIT-IDENTICAL to its scalar
// definition. The vector implementations achieve this by lane-mapping whole
// observations (one path per SIMD lane, gathered through the dataset's
// lane-blocked index layout) so each path's product is evaluated with
// exactly the scalar association:
//
//   * ll_sum / grad_weights use the two-accumulator even/odd product
//     (positions 0,2,4,.. -> a; 1,3,5,.. -> b; prob = c0 + c1 * a*b),
//   * path_products uses the straight in-order product (the Metropolis
//     product-cache semantics),
//   * ll_sum folds into 8 interleaved fold lanes (rows of 8 consecutive
//     sorted observations), with a shared scalar slow path for rows near
//     the fold thresholds,
//   * grad_accumulate sums per node over the transposed CSR in ascending
//     observation order — the exact addition sequence the forward
//     path-order scatter produces per node.
//
// Padding lanes multiply by q[sentinel] == 1.0, an exact identity, and the
// kernel translation units are compiled with -ffp-contract=off so no FMA
// contraction can reassociate the multiply-add in the probability affine
// map. Under those rules scalar and vector paths agree to the bit, which is
// what lets the multichain golden digests hold at every dispatch level
// (kernels_test pins this on randomized CSR datasets).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

namespace because::labeling {
struct BlockedLayout;
}

namespace because::core::kernels {

/// Numerical floor for q = 1 - p (keeps logs finite); must equal
/// Likelihood::kQFloor (static_assert'd in likelihood.cpp).
inline constexpr double kQFloor = 1e-12;
/// Floor for observation probabilities; must equal Likelihood::kProbFloor.
inline constexpr double kProbFloor = 1e-300;

/// Interleaved log-fold lanes of the ll_sum sweep: one AVX-512 register, two
/// AVX2 registers, or an 8-iteration scalar loop per fold row.
inline constexpr std::size_t kFoldLanes = 8;

/// Log-fold thresholds: probabilities below kFoldDirectLog take their log
/// directly (too small to fold into the running product safely); when the
/// running product dips below kFoldFlush it is flushed to the log total.
inline constexpr double kFoldDirectLog = 1e-30;
inline constexpr double kFoldFlush = 1e-270;

/// One step of the underflow-guarded log-fold: total += log(prod of probs)
/// evaluated with a running product `acc` that flushes to `total` before it
/// can underflow. This is the lane-local scalar recurrence that ll_sum
/// vectorizes; the slow (flush) path of every level calls exactly this.
inline void fold_one(double prob, double& acc, double& total) {
  if (prob < kFoldDirectLog) {
    total += std::log(prob);  // too small to fold into acc safely
    return;
  }
  acc *= prob;
  if (acc < kFoldFlush) {
    total += std::log(acc);
    acc = 1.0;
  }
}

/// The label-conditional affine map P(obs) = c0[label] + c1[label] * prod.
struct ObsCoeffs {
  double c0[2];
  double c1[2];
};

/// Borrowed view of one dataset's CSR arrays plus (for vector levels) its
/// lane-blocked index layout. Built per call by the Likelihood wrappers;
/// `blocked` is null when the active level does not gather (scalar).
struct DatasetView {
  const std::uint32_t* nodes = nullptr;
  const std::uint32_t* offsets = nullptr;  ///< paths + 1 entries
  const std::uint64_t* labels = nullptr;   ///< packed bitmap words
  const labeling::BlockedLayout* blocked = nullptr;
  std::size_t paths = 0;
  /// Length-sorted forward layout for ll_sum (every level reads its perm;
  /// vector levels also gather through it). Null for callers that never
  /// invoke ll_sum.
  const labeling::BlockedLayout* sorted = nullptr;
};

/// Borrowed view of the transposed (node -> observations) CSR, for the
/// gradient accumulation kernels. `obs` lists observation ids in ascending
/// order within each node's slice, which makes a per-node sum bit-identical
/// to the forward path-order scatter. `blocked` is the node-lane-blocked
/// layout whose sentinel is `paths` (weight buffers append a -0.0 there: an
/// exact additive identity, even for a -0.0 accumulator); null when the
/// active level does not gather (scalar).
struct TransposedView {
  const std::uint32_t* offsets = nullptr;  ///< nodes + 1 entries
  const std::uint32_t* obs = nullptr;      ///< flat observation ids
  const labeling::BlockedLayout* blocked = nullptr;
  std::size_t nodes = 0;
};

/// One dispatch level's kernel set. All `q` pointers reference a buffer of
/// dim + 1 entries with q[dim] == 1.0 (the gather sentinel).
struct KernelTable {
  /// q[i] = clamp(1 - p[i]) into [kQFloor, 1] for i < n.
  void (*clamp_q)(const double* p, double* q, std::size_t n);

  /// out[j - begin] = per-path gradient weight -c1 * prod_j / P_j.
  void (*grad_weights)(const DatasetView& d, const double* q,
                       const ObsCoeffs& c, std::size_t begin, std::size_t end,
                       double* out);

  /// out[j - begin] = in-order product of q over path j (Metropolis cache).
  void (*path_products)(const DatasetView& d, const double* q,
                        std::size_t begin, std::size_t end, double* out);

  /// Whole-likelihood fused sweep: observation t (in d.sorted->perm order)
  /// folds its probability into lane t mod 8, and the per-lane (total, acc)
  /// states combine in lane order at the end. Vector levels walk the sorted
  /// layout's homogeneous blocks (8 consecutive perm entries = one fold
  /// row) with no staged probability buffer; the scalar level and the
  /// sorted tail replay the identical per-observation sequence through
  /// ll_sum_fold_range. The fold partition is a pure function of the
  /// dataset (the stable length sort), so every level returns the same
  /// bits.
  double (*ll_sum)(const DatasetView& d, const double* q, const ObsCoeffs& c);

  /// grad[i] = sum of weights[j] over the observations j containing node i,
  /// in ascending-j order — bit-identical to the forward scatter
  /// "for j, for each node on path j: grad[node] += weights[j]" because each
  /// node sees the same additions in the same order. `weights` has paths + 1
  /// entries with weights[paths] == -0.0 (the gather-padding identity).
  /// Overwrites grad[0..t.nodes).
  void (*grad_accumulate)(const DatasetView& d, const TransposedView& t,
                          const double* weights, double* grad);

  /// Lane-blocked layout width this level gathers through (0 = none).
  std::size_t lane_width;
};

/// Per-level tables. kAvx2Table / kAvx512Table exist only when the matching
/// translation unit is compiled (BECAUSE_HAVE_*_KERNELS, see src/CMakeLists).
extern const KernelTable kScalarTable;
#if defined(BECAUSE_HAVE_AVX2_KERNELS)
extern const KernelTable kAvx2Table;
#endif
#if defined(BECAUSE_HAVE_AVX512_KERNELS)
extern const KernelTable kAvx512Table;
#endif

/// Scalar building blocks exported to the vector translation units for the
/// block-unaligned edges of observation ranges (defined in scalar.cpp,
/// compiled with baseline flags, so they are safe to call at any level).
double scalar_pair_product(const std::uint32_t* nodes, std::size_t lo,
                           std::size_t hi, const double* q);
double scalar_seq_product(const std::uint32_t* nodes, std::size_t lo,
                          std::size_t hi, const double* q);

/// Scalar slice of the ll_sum sweep: observations at perm positions
/// [from, to) fold into lane (position mod kFoldLanes) via fold_one, with
/// each probability computed by the scalar pair product — bit-identical to
/// the vector blocks, which is why every level uses it for the unblocked
/// sorted tail.
void ll_sum_fold_range(const DatasetView& d, const double* q,
                       const ObsCoeffs& c, std::size_t from, std::size_t to,
                       double* acc, double* total);

/// Fixed lane-order combine of the 8 fold states: sum_k total_k + log acc_k
/// (accs flush above ~1e-270, so per-lane logs stay finite where a product
/// of 8 residual accs could underflow).
inline double ll_sum_combine(const double* acc, const double* total) {
  double sum = 0.0;
  for (std::size_t k = 0; k < kFoldLanes; ++k)
    sum += total[k] + std::log(acc[k]);
  return sum;
}

}  // namespace because::core::kernels
