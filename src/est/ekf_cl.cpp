#include "est/ekf_cl.hpp"

#include <algorithm>
#include <utility>

#include "sim/checkpoint.hpp"

namespace cocoa::est {

EkfClEstimator::EkfClEstimator(const Config& tuning, const geom::Rect& area,
                               std::shared_ptr<const phy::PdfTable> table)
    : tuning_(tuning), table_(std::move(table)), area_(area) {}

void EkfClEstimator::reset(const geom::Vec2& position, bool position_known) {
    if (position_known) {
        ekf_.reset(position, 1.0);
    } else {
        // Unknown anywhere in the area.
        const double half = 0.5 * area_.width();
        ekf_.reset(position, half * half);
    }
    ever_fixed_ = position_known;
    last_fix_spread_m_ = std::numeric_limits<double>::infinity();
    accepted_this_window_ = 0;
}

void EkfClEstimator::predict(const geom::Vec2& measured_delta, double dt_s) {
    if (dt_s > 0.0 || measured_delta.norm_sq() > 0.0) {
        const double q = tuning_.ekf_q_displacement_frac *
                             tuning_.ekf_q_displacement_frac *
                             measured_delta.norm_sq() +
                         tuning_.ekf_q_floor_var_per_s * dt_s;
        ekf_.predict(measured_delta, q);
    }
}

bool EkfClEstimator::observe_beacon(const core::BeaconObservation& obs) {
    if (obs.rssi_dbm < tuning_.beacon_rssi_cutoff_dbm) return false;
    const phy::DistancePdf* pdf = table_->lookup(obs.rssi_dbm);
    if (pdf == nullptr) return false;
    if (!pdf->gaussian_fit_ok && !tuning_.use_non_gaussian_bins) return false;
    const double sigma = std::max(pdf->sigma_m, tuning_.ekf_min_range_sigma_m);
    if (ekf_.update_range(obs.anchor_position, pdf->mean_m, sigma,
                          tuning_.ekf_gate_sigmas)) {
        ever_fixed_ = true;
        last_fix_spread_m_ = ekf_.uncertainty();
        ++accepted_this_window_;
        ++stats_.updates_accepted;
        return true;
    }
    // Gated out: if the belief keeps disagreeing with measurements it must
    // lose confidence, or it will coast away for good.
    ekf_.predict({}, tuning_.ekf_reject_inflation_var);
    ++stats_.updates_gated;
    return false;
}

WindowSummary EkfClEstimator::end_window() {
    const int accepted = accepted_this_window_;
    accepted_this_window_ = 0;
    WindowSummary summary;
    summary.fixed = accepted > 0;
    summary.beacons_used = accepted;
    if (!summary.fixed) {
        // A whole window with nothing accepted — a loss burst, an outage, or
        // every anchor out of range. Open the filter so the next good
        // measurement can pull the state back (graceful degradation).
        ekf_.predict({}, tuning_.ekf_missed_window_var);
        ++stats_.windows_missed;
    }
    return summary;
}

void EkfClEstimator::register_counters(obs::CounterRegistry& registry,
                                       const std::string& node_prefix) const {
    registry.add(node_prefix + "est.updates_accepted", &stats_.updates_accepted);
    registry.add(node_prefix + "est.updates_gated", &stats_.updates_gated);
    registry.add(node_prefix + "est.windows_missed", &stats_.windows_missed);
}

template <typename Ar, typename Self>
void EkfClEstimator::walk(Ar& ar, Self& e) {
    walk_fix_bookkeeping(ar, e);
    geom::Vec2 mean = e.ekf_.mean();
    core::Cov2 cov = e.ekf_.covariance();
    ar(mean, cov, e.accepted_this_window_, e.stats_);
    if constexpr (Ar::loading) e.ekf_.set_state(mean, cov);
}

void EkfClEstimator::save_state(sim::ckpt::Writer& w) const { walk(w, *this); }

void EkfClEstimator::load_state(sim::ckpt::Reader& r) { walk(r, *this); }

}  // namespace cocoa::est
