#include "service/config.hpp"

#include <stdexcept>

namespace because::service {

void ServiceConfig::validate() const {
  inference.hmc.validate();
  inference.noise.validate();
  if (inference.prior_alpha <= 0.0 || inference.prior_beta <= 0.0)
    throw std::invalid_argument("ServiceConfig: Beta prior parameters <= 0");
  if (inference.hdpi_mass <= 0.0 || inference.hdpi_mass > 1.0)
    throw std::invalid_argument("ServiceConfig: hdpi_mass outside (0, 1]");
  if (signature.min_rdelta <= 0)
    throw std::invalid_argument("ServiceConfig: signature.min_rdelta <= 0");
  if (signature.pair_match_fraction <= 0.0 ||
      signature.pair_match_fraction > 1.0)
    throw std::invalid_argument(
        "ServiceConfig: signature.pair_match_fraction outside (0, 1]");
  if (pool_chains == 0)
    throw std::invalid_argument("ServiceConfig: pool_chains == 0");
  if (refresh_samples == 0)
    throw std::invalid_argument("ServiceConfig: refresh_samples == 0");
  if (hot_prefix_capacity == 0)
    throw std::invalid_argument("ServiceConfig: hot_prefix_capacity == 0");
}

ServiceConfig ServiceConfig::fast() {
  ServiceConfig c;
  c.inference = experiment::InferenceConfig::fast();
  c.inference.hmc.samples = 60;
  c.inference.hmc.burn_in = 30;
  c.pool_chains = 2;
  c.refresh_samples = 16;
  c.hot_prefix_capacity = 8;
  return c;
}

}  // namespace because::service
