// Posterior sample storage shared by both samplers.
#pragma once

#include <span>
#include <vector>

namespace because::core {

class Chain {
 public:
  explicit Chain(std::size_t dim);

  std::size_t dim() const { return dim_; }
  std::size_t size() const { return size_; }

  /// Append one sample (length must equal dim()).
  void push(std::span<const double> sample);

  /// Make room for `samples` samples in total, so pushes do not reallocate.
  void reserve(std::size_t samples) { flat_.reserve(samples * dim_); }

  /// Sample `t` as a view into the flat storage.
  std::span<const double> sample(std::size_t t) const;

  /// All values of coordinate `i` across the chain (copied out, e.g. for
  /// HDPI computation over a marginal).
  std::vector<double> marginal(std::size_t i) const;

  /// Posterior mean of coordinate `i`.
  double mean(std::size_t i) const;

  /// Fraction of proposals accepted while generating this chain.
  double acceptance_rate = 0.0;

  /// Fraction of proposals accepted after burn-in only — for adaptive
  /// warmup (HMC dual averaging) this is the acceptance the frozen step
  /// size actually delivers, free of the warmup transient.
  double kept_acceptance_rate = 0.0;

  /// Leapfrog step size the sampling phase actually used (HMC only): the
  /// frozen dual-averaging iterate when warmup adaptation ran, otherwise the
  /// configured step size. 0.0 for samplers without a step size.
  double adapted_step_size = 0.0;

 private:
  std::size_t dim_;
  std::size_t size_ = 0;
  std::vector<double> flat_;  // size_ * dim_
};

}  // namespace because::core
