#pragma once

#include "geom/vec2.hpp"
#include "mobility/waypoint.hpp"
#include "sim/fields.hpp"
#include "sim/random.hpp"

namespace cocoa::mobility {

/// Error model of the paper's odometry (§3, Fig. 5):
///  - displacement error: zero-mean Gaussian, stddev 0.1 m per second of
///    driving (scaled by sqrt(dt) so the error process is tick-size
///    invariant);
///  - angular error: zero-mean Gaussian, stddev 10 degrees, charged at each
///    commanded heading change (turn);
///  - optional continuous heading drift (gyro-style), off by default.
struct OdometryConfig {
    double displacement_sigma = 0.1;                      ///< m / sqrt(s) while driving
    double angular_sigma_rad = geom::deg_to_rad(10.0);    ///< per turn
    double heading_drift_sigma_rad = 0.0;                 ///< rad / sqrt(s) while driving
    /// Per-axis sigma of a persistent per-robot velocity bias (m/s):
    /// systematic miscalibration (wheel diameter, surface slip) that makes
    /// the dead-reckoned position drift linearly in time and survives
    /// position fixes. Calibrated so that odometry-only error exceeds 100 m
    /// after 30 minutes at either evaluated speed, as the paper's Fig. 4
    /// reports, while CoCoA's per-period drift stays small.
    double velocity_bias_sigma = 0.045;

    /// The field list (sim/fields.hpp).
    static constexpr auto fields() {
        using namespace sim::fields;
        using C = OdometryConfig;
        return std::tuple{
            field("displacement_sigma", &C::displacement_sigma, non_negative),
            field("angular_sigma_rad", &C::angular_sigma_rad, non_negative),
            field("heading_drift_sigma_rad", &C::heading_drift_sigma_rad, non_negative),
            field("velocity_bias_sigma", &C::velocity_bias_sigma, non_negative),
        };
    }
};
static_assert(sim::fields::lists_every_member<OdometryConfig>());

/// Dead-reckoning pose estimator fed by true motion increments.
///
/// The estimator integrates *measured* (noise-corrupted) increments starting
/// from the pose given to reset(). The difference between its position and
/// the mobility model's true position is the paper's odometry localization
/// error, which accumulates without bound (Fig. 4).
class OdometryEstimator {
  public:
    OdometryEstimator(const OdometryConfig& config, sim::RandomStream rng);

    /// Re-anchors the estimate at a known pose (initial deployment, or a
    /// CoCoA position fix).
    void reset(geom::Vec2 position, double heading_rad);

    /// Integrates one true motion increment with measurement noise.
    void observe(const MotionIncrement& increment);

    /// Convenience: observe a whole batch, in order.
    void observe_all(const std::vector<MotionIncrement>& increments) {
        for (const MotionIncrement& m : increments) observe(m);
    }

    geom::Vec2 position() const { return position_; }
    double heading() const { return heading_; }
    /// Total driven distance the odometer has measured since the last reset.
    double distance_travelled() const { return distance_; }
    /// This robot's persistent velocity bias (diagnostics).
    geom::Vec2 velocity_bias() const { return bias_; }

    /// Multiplies every noise sigma (displacement, angular, drift) from now
    /// on — fault injection for a degrading encoder/IMU. The persistent
    /// velocity bias is calibration, not noise, and is unaffected. Throws
    /// std::invalid_argument unless scale > 0; 1.0 restores nominal noise
    /// bit-exactly.
    void set_noise_scale(double scale);
    double noise_scale() const { return noise_scale_; }

    /// Checkpoint walk (sim/checkpoint.hpp): the RNG position, the
    /// dead-reckoned pose, the persistent bias and the noise scale.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& o) {
        ar(o.rng_, o.position_, o.bias_, o.heading_, o.distance_, o.noise_scale_);
    }

  private:
    OdometryConfig config_;
    sim::RandomStream rng_;
    geom::Vec2 position_;
    geom::Vec2 bias_;  ///< drawn once; deliberately NOT cleared by reset()
    double heading_ = 0.0;
    double distance_ = 0.0;
    double noise_scale_ = 1.0;
};

}  // namespace cocoa::mobility
