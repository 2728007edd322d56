#include "mobility/odometry.hpp"

#include <cmath>
#include <stdexcept>


namespace cocoa::mobility {

OdometryEstimator::OdometryEstimator(const OdometryConfig& config, sim::RandomStream rng)
    : config_(config), rng_(std::move(rng)) {
    sim::fields::check(config_, "OdometryConfig");
    bias_ = {rng_.gaussian(0.0, config_.velocity_bias_sigma),
             rng_.gaussian(0.0, config_.velocity_bias_sigma)};
}

void OdometryEstimator::reset(geom::Vec2 position, double heading_rad) {
    position_ = position;
    heading_ = geom::wrap_angle(heading_rad);
    distance_ = 0.0;
}

void OdometryEstimator::set_noise_scale(double scale) {
    if (scale <= 0.0) {
        throw std::invalid_argument("OdometryEstimator: noise scale must be > 0");
    }
    noise_scale_ = scale;
}

void OdometryEstimator::observe(const MotionIncrement& increment) {
    // A commanded turn is measured with Gaussian angular error.
    if (increment.heading_change_rad != 0.0) {
        const double measured_turn =
            increment.heading_change_rad +
            rng_.gaussian(0.0, config_.angular_sigma_rad * noise_scale_);
        heading_ = geom::wrap_angle(heading_ + measured_turn);
    }
    if (increment.forward_m > 0.0) {
        const double dt_s = increment.dt.to_seconds();
        const double sqrt_dt = std::sqrt(dt_s);
        // Continuous gyro drift while driving, if modelled.
        if (config_.heading_drift_sigma_rad > 0.0) {
            heading_ = geom::wrap_angle(
                heading_ + rng_.gaussian(0.0, config_.heading_drift_sigma_rad *
                                                  noise_scale_ * sqrt_dt));
        }
        const double measured_forward =
            increment.forward_m +
            rng_.gaussian(0.0, config_.displacement_sigma * noise_scale_ * sqrt_dt);
        position_ += geom::Vec2::from_heading(heading_) * measured_forward;
        // Systematic miscalibration drifts the estimate while driving; a
        // position fix re-anchors the estimate but cannot remove the bias.
        position_ += bias_ * dt_s;
        distance_ += measured_forward;
    }
}

}  // namespace cocoa::mobility
