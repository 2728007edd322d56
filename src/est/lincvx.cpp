#include "est/lincvx.hpp"

#include <algorithm>
#include <utility>

#include "sim/checkpoint.hpp"

namespace cocoa::est {

LinCvxEstimator::LinCvxEstimator(const Config& tuning, const geom::Rect& area,
                                 std::shared_ptr<const phy::PdfTable> table)
    : tuning_(tuning),
      table_(std::move(table)),
      area_(area),
      mean_(area_.center()) {
    const double half = 0.5 * area_.width();
    var_ = half * half;
}

void LinCvxEstimator::reset(const geom::Vec2& position, bool position_known) {
    mean_ = position;
    const double half = 0.5 * area_.width();
    var_ = position_known ? 1.0 : half * half;
    ever_fixed_ = position_known;
    last_fix_spread_m_ = std::numeric_limits<double>::infinity();
    pending_var_ = 0.0;
}

void LinCvxEstimator::predict(const geom::Vec2& measured_delta, double dt_s) {
    if (dt_s <= 0.0 && measured_delta.norm_sq() == 0.0) return;
    mean_ += measured_delta;
    var_ += tuning_.ekf_q_displacement_frac * tuning_.ekf_q_displacement_frac *
                measured_delta.norm_sq() +
            tuning_.ekf_q_floor_var_per_s * dt_s;
}

std::optional<core::Fix> LinCvxEstimator::compute_fix(
    const std::vector<core::BeaconObservation>& beacons) {
    // Inverse-variance-weighted blend of one candidate point per usable
    // beacon. Plain accumulators — no temporaries, no allocation.
    double weight_sum = 0.0;
    double cx = 0.0;
    double cy = 0.0;
    int used = 0;
    for (const core::BeaconObservation& beacon : beacons) {
        if (beacon.rssi_dbm < tuning_.beacon_rssi_cutoff_dbm) {
            ++stats_.beacons_skipped;
            continue;
        }
        const phy::DistancePdf* pdf = table_->lookup(beacon.rssi_dbm);
        if (pdf == nullptr ||
            (!pdf->gaussian_fit_ok && !tuning_.use_non_gaussian_bins)) {
            ++stats_.beacons_skipped;
            continue;
        }
        // Candidate: the point at the ranged distance from the anchor, along
        // the ray toward the prior — the opportunistic linearization of the
        // ring constraint (degenerates to the anchor itself when the prior
        // sits on it).
        const geom::Vec2 to_prior = mean_ - beacon.anchor_position;
        const double norm = to_prior.norm();
        const geom::Vec2 candidate =
            norm > 1e-9 ? beacon.anchor_position + to_prior * (pdf->mean_m / norm)
                        : beacon.anchor_position;
        const double sigma = std::max(pdf->sigma_m, tuning_.ekf_min_range_sigma_m);
        const double weight = 1.0 / (sigma * sigma);
        weight_sum += weight;
        cx += weight * candidate.x;
        cy += weight * candidate.y;
        ++used;
    }
    if (used < tuning_.lincvx_min_beacons || weight_sum <= 0.0) {
        return std::nullopt;
    }
    // Convex combination of prior and measurement blend, weighted by their
    // variances: lambda -> 1 when the prior knows nothing, -> 0 when the
    // dead reckoning is tighter than the beacons.
    const double meas_var = 1.0 / weight_sum;
    const double lambda = var_ / (var_ + meas_var);
    const geom::Vec2 blend{cx / weight_sum, cy / weight_sum};
    const geom::Vec2 position =
        area_.clamp(mean_ * (1.0 - lambda) + blend * lambda);
    pending_var_ = var_ * meas_var / (var_ + meas_var);
    ++stats_.fixes;
    stats_.beacons_used += static_cast<std::uint64_t>(used);
    return core::Fix{position, used, std::sqrt(2.0 * pending_var_)};
}

void LinCvxEstimator::apply_fix(const std::optional<core::Fix>& fix,
                                double /*heading*/) {
    if (!fix.has_value()) return;  // keep coasting on the inflated prior
    mean_ = fix->position;
    var_ = pending_var_;
    ever_fixed_ = true;
    last_fix_spread_m_ = fix->posterior_spread_m;
}

void LinCvxEstimator::register_counters(obs::CounterRegistry& registry,
                                        const std::string& node_prefix) const {
    registry.add(node_prefix + "est.fixes", &stats_.fixes);
    registry.add(node_prefix + "est.beacons_used", &stats_.beacons_used);
    registry.add(node_prefix + "est.beacons_skipped", &stats_.beacons_skipped);
}

template <typename Ar, typename Self>
void LinCvxEstimator::walk(Ar& ar, Self& e) {
    walk_fix_bookkeeping(ar, e);
    ar(e.mean_, e.var_, e.pending_var_, e.stats_);
}

void LinCvxEstimator::save_state(sim::ckpt::Writer& w) const { walk(w, *this); }

void LinCvxEstimator::load_state(sim::ckpt::Reader& r) { walk(r, *this); }

}  // namespace cocoa::est
