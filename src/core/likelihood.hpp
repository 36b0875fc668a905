// The binary-tomography likelihood model of §3.1, with the optional
// measurement-error extension sketched in §7.2.
//
// Each AS i has a damping proportion p_i (q_i = 1 - p_i). A path J that does
// not show the property contributes prod_{i in J} q_i; a path that shows it
// contributes 1 - prod_{i in J} q_i (Eq. 4-5).
//
// With the noise model enabled the label can flip: a path with no damping
// AS still shows the signature with probability `false_signature` (BGP
// path-dependence can delay a clean path's re-advertisement behind someone
// else's release), and a damped path loses its signature with probability
// `missed_signature` (the downstream never switches back, so no
// re-advertisement reaches the vantage point). The likelihood becomes
//
//   P(J shows | q)  =  fs * prod + (1 - ms) * (1 - prod)
//   P(J clean | q)  =  (1 - fs) * prod + ms * (1 - prod)
//
// which degrades gracefully to Eq. 4-5 at fs = ms = 0.
//
// The kernels stream the dataset's CSR arrays: q (and log q) are clamped
// once per coordinate instead of once per path element, noise-free clean
// paths reduce to a sum of precomputed log q (no transcendental per path),
// and the gradient uses one division per observation instead of two per
// path element. The per-observation arithmetic is routed through the
// core::kernels dispatch table (scalar / AVX2 / AVX-512), whose vector
// levels are bit-identical to the scalar definitions — see
// core/kernels/kernels.hpp for the determinism contract.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "labeling/dataset.hpp"

namespace because::core {

/// Label-flip noise rates (§7.2's explicit error model).
struct NoiseModel {
  /// P(path shows the signature | no AS on it damps).
  double false_signature = 0.0;
  /// P(path does not show the signature | some AS on it damps).
  double missed_signature = 0.0;

  void validate() const;
};

class Likelihood {
 public:
  /// The dataset must outlive the Likelihood.
  explicit Likelihood(const labeling::PathDataset& data, NoiseModel noise = {});

  std::size_t dim() const { return data_.as_count(); }
  const labeling::PathDataset& data() const { return data_; }
  const NoiseModel& noise() const { return noise_; }

  /// Full log P(D | p). `p` has dim() entries in [0, 1].
  double log_likelihood(std::span<const double> p) const;

  /// Per-observation products prod_{i in J} q_i for the current p.
  std::vector<double> products(std::span<const double> p) const;

  /// Log-likelihood contribution of one observation given its product.
  double observation_log_lik(double product, bool shows_property) const;

  /// Gradient of the log-likelihood with respect to p (same length as p);
  /// overwrites `grad`.
  void gradient(std::span<const double> p, std::span<double> grad) const;

  /// Numerical floor for q = 1 - p, keeping logs finite.
  static constexpr double kQFloor = 1e-12;
  /// Floor for observation probabilities.
  static constexpr double kProbFloor = 1e-300;

 private:
  const labeling::PathDataset& data_;
  NoiseModel noise_;
};

/// The shared clamp q = 1 - p into [kQFloor, 1] used by every kernel that
/// walks the likelihood (samplers included) — one definition so the cached
/// per-observation products and the full kernels agree bit-for-bit.
inline double clamp_q(double p) {
  return std::max(Likelihood::kQFloor, std::min(1.0, 1.0 - p));
}

}  // namespace because::core
