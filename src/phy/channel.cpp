#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace cocoa::phy {

Channel::Channel(const ChannelConfig& config) : config_(config) {
    sim::fields::check(config_, "ChannelConfig");
    if (config_.breakpoint_m <= config_.ref_distance_m ||
        config_.sigma_ramp_end_m < config_.breakpoint_m) {
        throw std::invalid_argument(
            "ChannelConfig: need ref_distance_m < breakpoint_m <= sigma_ramp_end_m");
    }
    // The mean at the breakpoint, a constant of the config: mean_rssi_dbm
    // subtracts the far-slope loss from it instead of re-taking its log10.
    at_break_dbm_ = config_.tx_power_dbm - config_.ref_loss_db -
                    10.0 * config_.exponent_near *
                        std::log10(config_.breakpoint_m / config_.ref_distance_m);
    max_range_m_ = solve_range(config_.rx_sensitivity_dbm, "rx_sensitivity_dbm");
    cs_range_m_ = solve_range(config_.carrier_sense_dbm, "carrier_sense_dbm");
    const double sigma_max =
        std::max(config_.shadowing_sigma_near_db, config_.shadowing_sigma_far_db);
    influence_range_m_ =
        solve_range(config_.carrier_sense_dbm - config_.shadowing_clamp_sigmas * sigma_max,
                    "shadowing_clamp_sigmas");
}

double Channel::mean_rssi_dbm(double distance_m) const {
    const double d = std::max(distance_m, config_.ref_distance_m);
    const double at_ref = config_.tx_power_dbm - config_.ref_loss_db;
    if (d <= config_.breakpoint_m) {
        return at_ref -
               10.0 * config_.exponent_near * std::log10(d / config_.ref_distance_m);
    }
    return at_break_dbm_ - 10.0 * config_.exponent_far * std::log10(d / config_.breakpoint_m);
}

double Channel::shadowing_sigma_db(double distance_m) const {
    if (distance_m <= config_.breakpoint_m) return config_.shadowing_sigma_near_db;
    if (distance_m >= config_.sigma_ramp_end_m) return config_.shadowing_sigma_far_db;
    const double f = (distance_m - config_.breakpoint_m) /
                     (config_.sigma_ramp_end_m - config_.breakpoint_m);
    return config_.shadowing_sigma_near_db +
           f * (config_.shadowing_sigma_far_db - config_.shadowing_sigma_near_db);
}

double Channel::fade_mean_db(double distance_m) const {
    if (distance_m <= config_.breakpoint_m) return 0.0;
    if (distance_m >= config_.sigma_ramp_end_m) return config_.fade_mean_far_db;
    const double f = (distance_m - config_.breakpoint_m) /
                     (config_.sigma_ramp_end_m - config_.breakpoint_m);
    return f * config_.fade_mean_far_db;
}

double Channel::solve_range(double threshold_dbm, const char* field) const {
    // mean_rssi is strictly decreasing in distance; invert by bisection over
    // a bracket whose far end provably lies at or below the threshold.
    double lo = config_.ref_distance_m;
    double hi = lo;
    while (mean_rssi_dbm(hi) > threshold_dbm) {
        hi *= 2.0;
        if (!std::isfinite(hi)) {
            throw std::invalid_argument(
                std::string("ChannelConfig.") + field + ": the mean RSSI never falls to " +
                std::to_string(threshold_dbm) + " dBm at a finite distance");
        }
    }
    for (int i = 0; i < 60; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (mean_rssi_dbm(mid) > threshold_dbm) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

}  // namespace cocoa::phy
