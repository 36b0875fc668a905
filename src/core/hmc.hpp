// Hamiltonian Monte Carlo sampler for the BeCAUSe posterior (§3.2).
//
// The constrained parameters p in [0,1]^N are mapped to unconstrained
// theta = logit(p); the sampler runs leapfrog trajectories in theta with
// Gaussian momenta and applies a Metropolis accept/reject on the joint
// Hamiltonian. The log-density in theta includes the Jacobian
// sum_i log(p_i (1 - p_i)) of the sigmoid transform, so samples mapped back
// through sigmoid are distributed according to the posterior over p.
//
// One trajectory implementation, one draw loop:
//   HmcSampler     the resumable sampler. draw(), the one loop that
//                  advances N trajectories and keeps the positions past a
//                  cut-off, may be called again and again; the full mid-run
//                  state (position, dual-averaging iterates, RNG engine) is
//                  exposed for save/restore. The becaused service keeps
//                  warm pools of these at their post-warmup state (through
//                  core::advance_hmc_chains) — the dual-averaging step size
//                  is frozen once burn-in ends, so later trajectories come
//                  from a fixed-step sampler and a restored sampler
//                  continues bit-identically to one that never stopped.
//   run_hmc        the one-shot batch form (warmup + kept samples, the
//                  offline pipeline's path): one sampler's draw().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/chain.hpp"
#include "core/likelihood.hpp"
#include "core/prior.hpp"

namespace because::core {

struct HmcConfig {
  std::size_t samples = 1000;  ///< kept samples
  std::size_t burn_in = 200;   ///< discarded initial trajectories
  double step_size = 0.05;     ///< leapfrog step epsilon
  std::size_t leapfrog_steps = 20;
  std::uint64_t seed = 2;

  /// Dual-averaging step-size adaptation (Hoffman & Gelman 2014, Algorithm
  /// 5's schedule with Stan's defaults). During burn-in the step size chases
  /// `target_accept` mean acceptance; at the end of burn-in it freezes to
  /// the averaged iterate, so the kept samples come from a fixed-step
  /// sampler and a given (seed, config) is fully reproducible. `step_size`
  /// becomes the adaptation's starting point. Off by default: the golden
  /// digests of existing runs are unchanged unless a caller opts in.
  bool adapt_step_size = false;
  /// Warmup acceptance target (Stan's default 0.8).
  double target_accept = 0.8;

  void validate() const;
};

/// The complete mid-run state of an HmcSampler: everything iterate() reads
/// besides the (likelihood, prior, config) triple. Restoring this into a
/// sampler built over the same triple resumes the trajectory stream
/// bit-identically — the RNG engine is serialized as the std::mt19937_64
/// stream text, and the log-target at `theta` is recomputed on restore (a
/// pure function of theta, so no drift). The becaused snapshot format
/// persists exactly these fields.
struct HmcSamplerState {
  std::vector<double> theta;      ///< unconstrained position, logit(p)
  double step_size = 0.0;         ///< current (warmup iterate or frozen) eps
  double log_eps_bar = 0.0;       ///< dual-averaging averaged iterate
  double h_bar = 0.0;             ///< dual-averaging error accumulator
  std::uint64_t iteration = 0;    ///< trajectories completed
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t kept_accepts = 0;  ///< accepts at iteration >= burn_in
  std::uint64_t divergences = 0;
  std::uint64_t leapfrog_steps = 0;
  std::string rng_state;          ///< operator<< text of the mt19937_64 engine
};

/// Resumable HMC: draw() advances any number of leapfrog trajectories and
/// may be called repeatedly. Warmup adaptation runs for the first
/// config.burn_in trajectories and freezes afterwards; advancing past
/// burn_in + samples is allowed and keeps drawing from the frozen-step
/// sampler (the warm-pool refresh path).
class HmcSampler {
 public:
  /// Draws the initial position from the prior (the same stream run_hmc
  /// consumed). `likelihood` and `prior` must outlive the sampler.
  HmcSampler(const Likelihood& likelihood, const Prior& prior,
             const HmcConfig& config);

  /// Run `trajectories` trajectories and return the positions (as p)
  /// after the first `keep_after` of them. The chain's rates cover the
  /// sampler's whole life: acceptance over every trajectory, kept
  /// acceptance over the trajectories past burn-in, and the current step
  /// size. Records no obs; see flush_obs().
  Chain draw(std::size_t trajectories, std::size_t keep_after);

  std::size_t dim() const { return theta_.size(); }

  /// Snapshot / resume. restore_state() recomputes the cached log-target
  /// from the restored theta and replaces the RNG engine, so a
  /// save/destroy/restore cycle is invisible to the trajectory stream.
  /// (Non-const: serializing the engine goes through Rng::engine().)
  HmcSamplerState save_state();
  void restore_state(const HmcSamplerState& state);

  /// Publish the obs counter deltas accumulated since the last flush
  /// (mcmc.hmc.* catalogue counters). Safe to call repeatedly; each delta
  /// is published exactly once, so the totals match a single end-of-run
  /// flush.
  void flush_obs();

 private:
  /// Run exactly one trajectory: momentum draw, leapfrog integration,
  /// accept/reject, and (during burn-in) the dual-averaging update.
  void iterate();

  /// Current position mapped through sigmoid into an internal buffer
  /// (valid until the next iterate()/current_p() call).
  std::span<const double> current_p();

  const Likelihood& likelihood_;
  const Prior& prior_;
  HmcConfig config_;

  stats::Rng rng_;
  std::vector<double> theta_;
  std::vector<double> p_buf_, grad_p_, theta_prop_, momentum_, grad_prop_;
  double current_logp_ = 0.0;

  // Dual-averaging state (Hoffman & Gelman 2014, eq. 6 with Stan's
  // constants). The iterate eps_m explores aggressively; the kappa-weighted
  // average eps_bar is what the sampling phase freezes to.
  double step_size_;
  double mu_;
  double log_eps_bar_ = 0.0;
  double h_bar_ = 0.0;

  std::uint64_t iteration_ = 0;
  std::uint64_t proposals_ = 0;
  std::uint64_t accepts_ = 0;
  std::uint64_t kept_accepts_ = 0;
  std::uint64_t divergences_ = 0;
  std::uint64_t leapfrog_steps_ = 0;
  // flush_obs() high-water marks: counts already published.
  std::uint64_t flushed_proposals_ = 0;
  std::uint64_t flushed_accepts_ = 0;
  std::uint64_t flushed_divergences_ = 0;
  std::uint64_t flushed_leapfrog_steps_ = 0;
};

/// Run the sampler; the initial state is drawn from the prior. The returned
/// chain stores samples of p (already mapped back from theta).
Chain run_hmc(const Likelihood& likelihood, const Prior& prior,
              const HmcConfig& config);

}  // namespace because::core
