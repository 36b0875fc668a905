#include "core/hmc.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "util/contracts.hpp"

namespace because::core {

namespace {

constexpr double kThetaClamp = 30.0;  // sigmoid saturates well before this

// Dual-averaging constants (Stan's defaults).
constexpr double kGamma = 0.05;
constexpr double kT0 = 10.0;
constexpr double kKappa = 0.75;

double sigmoid(double theta) { return 1.0 / (1.0 + std::exp(-theta)); }

void to_p(std::span<const double> theta, std::span<double> p) {
  for (std::size_t i = 0; i < theta.size(); ++i) p[i] = sigmoid(theta[i]);
}

/// Log target density in theta space:
///   loglik(p) + logprior(p) + sum_i log(p_i (1 - p_i))
double log_target(const Likelihood& lik, const Prior& prior,
                  std::span<const double> theta, std::vector<double>& p_buf) {
  to_p(theta, p_buf);
  double jacobian = 0.0;
  for (double p : p_buf) {
    const double x = std::clamp(p, 1e-12, 1.0 - 1e-12);
    jacobian += std::log(x) + std::log(1.0 - x);
  }
  return lik.log_likelihood(p_buf) + prior.log_density(p_buf) + jacobian;
}

/// Gradient of log_target with respect to theta.
void grad_log_target(const Likelihood& lik, const Prior& prior,
                     std::span<const double> theta, std::vector<double>& p_buf,
                     std::vector<double>& grad_p, std::span<double> grad_theta) {
  to_p(theta, p_buf);
  lik.gradient(p_buf, grad_p);
  prior.add_gradient(p_buf, grad_p);
  for (std::size_t i = 0; i < theta.size(); ++i) {
    const double p = std::clamp(p_buf[i], 1e-12, 1.0 - 1e-12);
    // dp/dtheta = p (1 - p); d jacobian/dtheta = 1 - 2 p.
    grad_theta[i] = grad_p[i] * p * (1.0 - p) + (1.0 - 2.0 * p);
  }
}

}  // namespace

void HmcConfig::validate() const {
  if (samples == 0) throw std::invalid_argument("HmcConfig: samples == 0");
  if (step_size <= 0.0) throw std::invalid_argument("HmcConfig: step_size <= 0");
  if (leapfrog_steps == 0)
    throw std::invalid_argument("HmcConfig: leapfrog_steps == 0");
  if (adapt_step_size && (target_accept <= 0.0 || target_accept >= 1.0))
    throw std::invalid_argument("HmcConfig: target_accept outside (0, 1)");
}

HmcSampler::HmcSampler(const Likelihood& likelihood, const Prior& prior,
                       const HmcConfig& config)
    : likelihood_(likelihood),
      prior_(prior),
      config_(config),
      rng_(config.seed),
      step_size_(config.step_size),
      mu_(std::log(10.0 * config.step_size)) {
  config_.validate();
  const std::size_t dim = likelihood.dim();
  if (dim == 0) throw std::invalid_argument("HmcSampler: empty dataset");

  theta_.resize(dim);
  for (double& t : theta_) {
    const double p = std::clamp(prior.sample_coord(rng_), 1e-6, 1.0 - 1e-6);
    t = std::log(p / (1.0 - p));
  }
  p_buf_.resize(dim);
  grad_p_.resize(dim);
  theta_prop_.resize(dim);
  momentum_.resize(dim);
  grad_prop_.resize(dim);

  current_logp_ = log_target(likelihood_, prior_, theta_, p_buf_);
  BECAUSE_ASSERT(!std::isnan(current_logp_),
                 "initial log target is NaN; prior/likelihood disagree on support");
}

void HmcSampler::iterate() {
  const std::size_t dim = theta_.size();
  for (double& m : momentum_) m = rng_.normal();
  double kinetic0 = 0.0;
  for (double m : momentum_) kinetic0 += 0.5 * m * m;

  theta_prop_ = theta_;
  grad_log_target(likelihood_, prior_, theta_prop_, p_buf_, grad_p_,
                  grad_prop_);

  // Leapfrog integration.
  for (std::size_t step = 0; step < config_.leapfrog_steps; ++step) {
    for (std::size_t i = 0; i < dim; ++i)
      momentum_[i] += 0.5 * step_size_ * grad_prop_[i];
    for (std::size_t i = 0; i < dim; ++i) {
      theta_prop_[i] += step_size_ * momentum_[i];
      theta_prop_[i] = std::clamp(theta_prop_[i], -kThetaClamp, kThetaClamp);
    }
    grad_log_target(likelihood_, prior_, theta_prop_, p_buf_, grad_p_,
                    grad_prop_);
    for (std::size_t i = 0; i < dim; ++i)
      momentum_[i] += 0.5 * step_size_ * grad_prop_[i];
  }

  const double proposed_logp =
      log_target(likelihood_, prior_, theta_prop_, p_buf_);
  double kinetic1 = 0.0;
  for (double m : momentum_) kinetic1 += 0.5 * m * m;

  const double log_accept =
      (proposed_logp - kinetic1) - (current_logp_ - kinetic0);
  ++proposals_;
  leapfrog_steps_ += config_.leapfrog_steps;
  // Divergence diagnostic only (Stan's convention: the trajectory's energy
  // error exploded). Acceptance below is unchanged — a non-finite or very
  // negative log_accept already rejects through the same comparison.
  if (!std::isfinite(log_accept) || log_accept < -1000.0) ++divergences_;
  if (log_accept >= 0.0 || rng_.uniform() < std::exp(log_accept)) {
    ++accepts_;
    if (iteration_ >= config_.burn_in) ++kept_accepts_;
    theta_ = theta_prop_;
    current_logp_ = proposed_logp;
  }

  if (config_.adapt_step_size && iteration_ < config_.burn_in) {
    // alpha = min(1, exp(log_accept)); a diverged (non-finite) trajectory
    // counts as 0, driving the step size down.
    const double alpha = std::isfinite(log_accept)
                             ? std::min(1.0, std::exp(log_accept))
                             : 0.0;
    const double m = static_cast<double>(iteration_ + 1);
    h_bar_ += (config_.target_accept - alpha - h_bar_) / (m + kT0);
    const double log_eps = mu_ - std::sqrt(m) / kGamma * h_bar_;
    const double w = std::pow(m, -kKappa);
    log_eps_bar_ = w * log_eps + (1.0 - w) * log_eps_bar_;
    // Iterate for the next warmup trajectory; freeze to the average once
    // burn-in ends so every kept sample uses one fixed step size.
    step_size_ = iteration_ + 1 < config_.burn_in ? std::exp(log_eps)
                                                  : std::exp(log_eps_bar_);
  }

  ++iteration_;
}

std::span<const double> HmcSampler::current_p() {
  to_p(theta_, p_buf_);
  BECAUSE_DCHECK(std::all_of(p_buf_.begin(), p_buf_.end(),
                             [](double p) { return p >= 0.0 && p <= 1.0; }),
                 "sigmoid produced a probability outside [0,1]");
  return p_buf_;
}

HmcSamplerState HmcSampler::save_state() {
  HmcSamplerState state;
  state.theta = theta_;
  state.step_size = step_size_;
  state.log_eps_bar = log_eps_bar_;
  state.h_bar = h_bar_;
  state.iteration = iteration_;
  state.proposals = proposals_;
  state.accepts = accepts_;
  state.kept_accepts = kept_accepts_;
  state.divergences = divergences_;
  state.leapfrog_steps = leapfrog_steps_;
  std::ostringstream engine_text;
  engine_text << rng_.engine();  // distributions are constructed per draw, so
                                 // the engine is the complete RNG state
  state.rng_state = engine_text.str();
  return state;
}

void HmcSampler::restore_state(const HmcSamplerState& state) {
  BECAUSE_CHECK(state.theta.size() == theta_.size(),
                "HmcSampler::restore_state: dimension mismatch ("
                    << state.theta.size() << " vs " << theta_.size() << ")");
  theta_ = state.theta;
  step_size_ = state.step_size;
  log_eps_bar_ = state.log_eps_bar;
  h_bar_ = state.h_bar;
  iteration_ = state.iteration;
  proposals_ = state.proposals;
  accepts_ = state.accepts;
  kept_accepts_ = state.kept_accepts;
  divergences_ = state.divergences;
  leapfrog_steps_ = state.leapfrog_steps;
  // A restored sampler starts a fresh obs epoch: the pre-snapshot deltas
  // were flushed by the sampler that saved the state.
  flushed_proposals_ = proposals_;
  flushed_accepts_ = accepts_;
  flushed_divergences_ = divergences_;
  flushed_leapfrog_steps_ = leapfrog_steps_;
  std::istringstream engine_text(state.rng_state);
  engine_text >> rng_.engine();
  BECAUSE_CHECK(!engine_text.fail(),
                "HmcSampler::restore_state: malformed RNG state text");
  // The log-target is a pure function of theta — recomputing it reproduces
  // the saved sampler's cached value bit-for-bit.
  current_logp_ = log_target(likelihood_, prior_, theta_, p_buf_);
  BECAUSE_ASSERT(!std::isnan(current_logp_),
                 "restored log target is NaN; state/dataset mismatch");
}

void HmcSampler::flush_obs() {
  if (!obs::enabled()) return;
  obs::add(obs::Counter::kHmcTrajectories, proposals_ - flushed_proposals_);
  obs::add(obs::Counter::kHmcAccepts, accepts_ - flushed_accepts_);
  obs::add(obs::Counter::kHmcDivergences, divergences_ - flushed_divergences_);
  obs::add(obs::Counter::kHmcLeapfrogSteps,
           leapfrog_steps_ - flushed_leapfrog_steps_);
  flushed_proposals_ = proposals_;
  flushed_accepts_ = accepts_;
  flushed_divergences_ = divergences_;
  flushed_leapfrog_steps_ = leapfrog_steps_;
}

Chain HmcSampler::draw(std::size_t trajectories, std::size_t keep_after) {
  BECAUSE_CHECK(trajectories > keep_after,
                "HmcSampler::draw: " << trajectories << " trajectories keep no "
                                     << "draws past " << keep_after);
  Chain chain(dim());
  chain.reserve(trajectories - keep_after);
  for (std::size_t t = 0; t < trajectories; ++t) {
    iterate();
    if (t >= keep_after) chain.push(current_p());
  }
  chain.acceptance_rate = static_cast<double>(accepts_) /
                          static_cast<double>(proposals_);
  const std::uint64_t kept = iteration_ > config_.burn_in
                                 ? iteration_ - config_.burn_in
                                 : 0;
  chain.kept_acceptance_rate =
      kept == 0 ? 0.0
                : static_cast<double>(kept_accepts_) / static_cast<double>(kept);
  chain.adapted_step_size = step_size_;
  return chain;
}

Chain run_hmc(const Likelihood& likelihood, const Prior& prior,
              const HmcConfig& config) {
  HmcSampler sampler(likelihood, prior, config);
  Chain chain = sampler.draw(config.burn_in + config.samples, config.burn_in);
  sampler.flush_obs();
  return chain;
}

}  // namespace because::core
