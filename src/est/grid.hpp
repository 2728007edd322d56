#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "est/estimator.hpp"

namespace cocoa::est {

/// The paper's estimator behind the interface: window beacons fold into the
/// Bayesian grid at window end (RfLocalizer), and between fixes the estimate
/// is either the held fix (Backend::Rf, §4.2) or the agent's dead reckoning
/// re-anchored at the fix (Backend::Grid, §4.3). Every numeric path
/// delegates to the same RfLocalizer the agent used to own, so output is
/// byte-identical to the pre-interface code, which the golden digests
/// (tests/golden/) pin.
class GridEstimator final : public Estimator {
  public:
    /// `backend` is Grid, Rf or Odometry; only Rf holds its fixes.
    GridEstimator(Backend backend, const Config& tuning, const core::GridConfig& grid,
                  std::shared_ptr<const phy::PdfTable> table,
                  mobility::OdometryEstimator* odometry);

    void reset(const geom::Vec2& position, bool position_known) override;
    bool collects_window_beacons() const override { return true; }
    std::optional<core::Fix> compute_fix(
        const std::vector<core::BeaconObservation>& beacons) override;
    /// The grid fold is pure in the window's beacons (no reads of the live
    /// belief), so it may run on a fix-pool worker.
    bool pool_safe_fix() const override { return true; }
    void apply_fix(const std::optional<core::Fix>& fix, double heading) override;

    geom::Vec2 estimate() const override;
    double spread_m() const override { return last_fix_spread_m_; }

    void register_counters(obs::CounterRegistry& registry,
                           const std::string& node_prefix) const override;
    const core::RfLocalizer::Stats& localizer_stats() const override {
        return localizer_.stats();
    }

    void save_state(sim::ckpt::Writer& w) const override;
    void load_state(sim::ckpt::Reader& r) override;

  private:
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& e);

    core::RfLocalizer localizer_;
    mobility::OdometryEstimator* odometry_;
    geom::Vec2 center_;
    bool rf_only_;
    /// Held fix (Backend::Rf), kept at the centre until the first fix —
    /// including after a reset with a known pose, matching the pre-interface
    /// agent field exactly.
    geom::Vec2 rf_position_;
};

}  // namespace cocoa::est
