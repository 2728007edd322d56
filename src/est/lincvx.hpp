#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "est/estimator.hpp"

namespace cocoa::est {

/// LinCvx: opportunistic linear-convex combination in the style of Safavi &
/// Khan (arXiv:1703.06387). The belief is a single (mean, isotropic
/// variance) pair. Dead reckoning inflates the variance between windows; at
/// window end each usable beacon contributes a candidate point — the anchor
/// position pushed out to the ranged distance along the prior-to-anchor ray
/// — and the fix is the inverse-variance-weighted convex combination of the
/// prior with the candidates' blend. No grid fold, no matrix algebra: a few
/// multiply-adds per beacon, the cheap-and-robust end of the accuracy/CPU
/// trade-off, and allocation-free in steady state (est_test pins this).
class LinCvxEstimator final : public Estimator {
  public:
    struct Stats {
        std::uint64_t fixes = 0;
        std::uint64_t beacons_used = 0;
        std::uint64_t beacons_skipped = 0;  ///< cutoff / no PDF bin / gated bin
    };

    LinCvxEstimator(const Config& tuning, const geom::Rect& area,
                    std::shared_ptr<const phy::PdfTable> table);

    void reset(const geom::Vec2& position, bool position_known) override;
    void predict(const geom::Vec2& measured_delta, double dt_s) override;
    bool integrates_odometry() const override { return true; }
    bool collects_window_beacons() const override { return true; }
    std::optional<core::Fix> compute_fix(
        const std::vector<core::BeaconObservation>& beacons) override;
    /// The blend reads the live prior, so it must run inline on the event
    /// thread — the agent never pools it (it is far cheaper than the pool
    /// handoff anyway).
    bool pool_safe_fix() const override { return false; }
    void apply_fix(const std::optional<core::Fix>& fix, double heading) override;

    geom::Vec2 estimate() const override { return area_.clamp(mean_); }
    double spread_m() const override { return std::sqrt(2.0 * var_); }

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
    geom::Vec2 mean_;
    double var_ = 0.0;          ///< per-axis prior variance (m^2)
    double pending_var_ = 0.0;  ///< posterior variance carried compute->apply
    Stats stats_;
};

}  // namespace cocoa::est
