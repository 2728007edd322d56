#pragma once

#include <cstdint>
#include <memory>

#include "core/ekf.hpp"
#include "est/estimator.hpp"

namespace cocoa::est {

/// EKF-CL: continuous range fusion in the style of the partially-
/// decentralized cooperative-localization EKF over unreliable links (Kia &
/// Martinez, arXiv:1608.00609). Each beacon updates a core::RangeEkf on
/// arrival, and a window that ends without a single accepted measurement
/// inflates the covariance — under the fault subsystem's loss bursts and
/// anchor outages the filter degrades gracefully instead of coasting
/// overconfidently, then re-converges when links return.
class EkfClEstimator final : public Estimator {
  public:
    struct Stats {
        std::uint64_t updates_accepted = 0;
        std::uint64_t updates_gated = 0;   ///< innovation-gate rejections
        std::uint64_t windows_missed = 0;  ///< windows with no accepted update
    };

    EkfClEstimator(const Config& tuning, const geom::Rect& area,
                   std::shared_ptr<const phy::PdfTable> table);

    void reset(const geom::Vec2& position, bool position_known) override;
    void predict(const geom::Vec2& measured_delta, double dt_s) override;
    bool integrates_odometry() const override { return true; }
    bool collects_window_beacons() const override { return false; }
    bool observe_beacon(const core::BeaconObservation& obs) override;
    WindowSummary end_window() override;

    geom::Vec2 estimate() const override { return area_.clamp(ekf_.mean()); }
    double spread_m() const override { return ekf_.uncertainty(); }

    void register_counters(obs::CounterRegistry& registry,
                           const std::string& node_prefix) const override;

    void save_state(sim::ckpt::Writer& w) const override;
    void load_state(sim::ckpt::Reader& r) override;

  private:
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& e);

    Config tuning_;
    std::shared_ptr<const phy::PdfTable> table_;
    geom::Rect area_;
    core::RangeEkf ekf_;
    int accepted_this_window_ = 0;
    Stats stats_;
};

}  // namespace cocoa::est
