#include "est/estimator.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "est/ekf_cl.hpp"
#include "est/grid.hpp"
#include "est/lincvx.hpp"
#include "sim/checkpoint.hpp"

namespace cocoa::est {

const char* to_string(Backend backend) {
    switch (backend) {
        case Backend::Grid: return "grid";
        case Backend::Ekf: return "ekf";
        case Backend::LinCvx: return "lincvx";
        case Backend::Rf: return "rf";
        case Backend::Odometry: return "odom";
    }
    return "?";
}

std::optional<Backend> parse_backend(std::string_view name) {
    if (name == "grid") return Backend::Grid;
    if (name == "ekf") return Backend::Ekf;
    if (name == "lincvx") return Backend::LinCvx;
    if (name == "rf") return Backend::Rf;
    if (name == "odom") return Backend::Odometry;
    return std::nullopt;
}

namespace {

// Negated comparisons: every ordered comparison is false for NaN.
void require(bool ok, const char* field, const char* rule) {
    if (!ok) {
        throw std::invalid_argument(std::string("est::Config: ") + field + " must be " +
                                    rule);
    }
}

void require_count(int value, const char* field) { require(value >= 1, field, ">= 1"); }

void require_non_negative(double value, const char* field) {
    require(value >= 0.0 && std::isfinite(value), field, "finite and >= 0");
}

void require_positive(double value, const char* field) {
    require(value > 0.0 && std::isfinite(value), field, "finite and > 0");
}

}  // namespace

void Config::validate() const {
    require_count(min_beacons_for_fix, "min_beacons_for_fix");
    require_count(lincvx_min_beacons, "lincvx_min_beacons");
    require(!std::isnan(beacon_rssi_cutoff_dbm), "beacon_rssi_cutoff_dbm", "a number");
    require_non_negative(ekf_q_displacement_frac, "ekf_q_displacement_frac");
    require_non_negative(ekf_q_floor_var_per_s, "ekf_q_floor_var_per_s");
    require_non_negative(ekf_reject_inflation_var, "ekf_reject_inflation_var");
    require_non_negative(ekf_missed_window_var, "ekf_missed_window_var");
    require_positive(ekf_gate_sigmas, "ekf_gate_sigmas");
    require_positive(ekf_min_range_sigma_m, "ekf_min_range_sigma_m");
}

const core::RfLocalizer::Stats& Estimator::localizer_stats() const {
    static const core::RfLocalizer::Stats kZero{};
    return kZero;
}

void Estimator::save_state(sim::ckpt::Writer& w) const {
    w.b(ever_fixed_);
    w.f64(last_fix_spread_m_);
}

void Estimator::load_state(sim::ckpt::Reader& r) {
    ever_fixed_ = r.b();
    last_fix_spread_m_ = r.f64();
}

std::unique_ptr<Estimator> make_estimator(
    Backend backend, const Config& tuning, const core::GridConfig& grid,
    std::shared_ptr<const phy::PdfTable> table, mobility::OdometryEstimator* odometry) {
    switch (backend) {
        case Backend::Ekf:
            return std::make_unique<EkfClEstimator>(tuning, grid.area, std::move(table));
        case Backend::LinCvx:
            return std::make_unique<LinCvxEstimator>(tuning, grid.area, std::move(table));
        case Backend::Grid:
        case Backend::Rf:
        case Backend::Odometry:  // never fixes: the agent dead-reckons it
            break;
    }
    return std::make_unique<GridEstimator>(backend, tuning, grid, std::move(table),
                                           odometry);
}

}  // namespace cocoa::est
