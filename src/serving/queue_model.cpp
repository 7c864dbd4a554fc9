#include "serving/queue_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dcs::serving {

double mg1_mean_response_s(double lambda_rps, double mu_rps,
                           double cv2) noexcept {
  const double rho = lambda_rps / mu_rps;
  return 1.0 / mu_rps +
         lambda_rps * (1.0 + cv2) / (2.0 * mu_rps * mu_rps * (1.0 - rho));
}

double ps_mean_response_s(double lambda_rps, double mu_rps) noexcept {
  return 1.0 / (mu_rps - lambda_rps);
}

void AnalyticQueue::step(std::size_t arrivals, double mu_rps, Duration dt,
                         Rng& rng, LatencyTracker& latencies) {
  // A fully shed / powered-off server (mu = 0) cannot serve: every request
  // pends and its modeled response saturates the histogram's top bucket.
  if (mu_rps <= 0.0) {
    backlog_ += static_cast<double>(arrivals);
    for (std::size_t i = 0; i < arrivals; ++i) {
      latencies.observe(LatencyHistogram::kMaxSeconds);
    }
    return;
  }
  const double lambda = static_cast<double>(arrivals) / dt.sec();
  const double rho = lambda / mu_rps;
  if (backlog_ <= 0.0 && rho < params_.rho_max) {
    const StationaryResponse response = stationary_response(lambda, mu_rps);
    for (std::size_t i = 0; i < arrivals; ++i) {
      latencies.observe(rng.exponential(response.rate) / response.stretch);
    }
    return;
  }
  // Fluid FIFO overload: request i queues behind the backlog plus the i
  // requests ahead of it this period, all draining at mu.
  latencies.observe_fluid(backlog_, arrivals, mu_rps);
  backlog_ = std::max(
      backlog_ + static_cast<double>(arrivals) - mu_rps * dt.sec(), 0.0);
}

StationaryResponse Mg1Queue::stationary_response(double lambda_rps,
                                                 double mu_rps) const {
  // Exponential with the Pollaczek-Khinchine mean (stretch 1 divides
  // exactly).
  const double mean = mg1_mean_response_s(lambda_rps, mu_rps, params().cv2);
  return {1.0 / mean, 1.0};
}

StationaryResponse ProcessorSharingQueue::stationary_response(
    double lambda_rps, double mu_rps) const {
  // Job size S ~ Exp(mu) stretched to S / (1 - rho).
  const double rho = lambda_rps / mu_rps;
  return {mu_rps, 1.0 - rho};
}

std::unique_ptr<QueueModel> make_queue_model(std::string_view name,
                                             QueueModelParams params) {
  DCS_REQUIRE(params.cv2 >= 0.0, "cv2 must be non-negative");
  DCS_REQUIRE(params.rho_max > 0.0 && params.rho_max < 1.0,
              "rho_max must lie in (0, 1)");
  if (name == "mg1") return std::make_unique<Mg1Queue>(params);
  if (name == "ps") return std::make_unique<ProcessorSharingQueue>(params);
  DCS_REQUIRE(false, "unknown queue model (want mg1 or ps)");
  return nullptr;
}

}  // namespace dcs::serving
