#include "est/grid.hpp"

#include <utility>

#include "sim/checkpoint.hpp"

namespace cocoa::est {

GridEstimator::GridEstimator(Backend backend, const Config& tuning,
                             const core::GridConfig& grid,
                             std::shared_ptr<const phy::PdfTable> table,
                             mobility::OdometryEstimator* odometry)
    : localizer_(grid, std::move(table),
                 core::RfLocalizer::Options{
                     .technique = tuning.technique,
                     .min_beacons = tuning.min_beacons_for_fix,
                     .rssi_cutoff_dbm = tuning.beacon_rssi_cutoff_dbm,
                     .use_non_gaussian_bins = tuning.use_non_gaussian_bins}),
      odometry_(odometry),
      center_(grid.area.center()),
      rf_only_(backend == Backend::Rf),
      rf_position_(center_) {}

void GridEstimator::reset(const geom::Vec2& /*position*/, bool position_known) {
    // The held fix restarts at the centre even for a known pose: the paper
    // never seeds the RF estimate, only the dead reckoning (which the agent
    // anchors at the true pose itself).
    rf_position_ = center_;
    ever_fixed_ = position_known;
    last_fix_spread_m_ = std::numeric_limits<double>::infinity();
}

std::optional<core::Fix> GridEstimator::compute_fix(
    const std::vector<core::BeaconObservation>& beacons) {
    return localizer_.compute_fix(beacons);
}

void GridEstimator::apply_fix(const std::optional<core::Fix>& fix, double heading) {
    if (!fix.has_value()) return;  // "continue with the old estimate" (§2.3)
    ever_fixed_ = true;
    last_fix_spread_m_ = fix->posterior_spread_m;
    if (rf_only_) {
        rf_position_ = fix->position;
    } else {
        // CoCoA: re-anchor dead reckoning at the fix (heading too when the
        // agent sampled the corrected one; see heading_correction_at_fix).
        odometry_->reset(fix->position, heading);
    }
}

geom::Vec2 GridEstimator::estimate() const {
    if (rf_only_) return rf_position_;
    return ever_fixed_ ? odometry_->position() : center_;
}

void GridEstimator::register_counters(obs::CounterRegistry& registry,
                                      const std::string& node_prefix) const {
    localizer_.register_counters(registry, node_prefix + "localizer.");
}

template <typename Ar, typename Self>
void GridEstimator::walk(Ar& ar, Self& e) {
    walk_fix_bookkeeping(ar, e);
    core::RfLocalizer::Stats stats = e.localizer_.stats();
    ar(e.rf_position_, stats);
    if constexpr (Ar::loading) e.localizer_.set_stats(stats);
}

void GridEstimator::save_state(sim::ckpt::Writer& w) const { walk(w, *this); }

void GridEstimator::load_state(sim::ckpt::Reader& r) { walk(r, *this); }

}  // namespace cocoa::est
