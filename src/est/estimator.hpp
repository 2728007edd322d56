#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/rf_localizer.hpp"
#include "geom/vec2.hpp"
#include "mobility/odometry.hpp"
#include "obs/counters.hpp"
#include "phy/pdf_table.hpp"
#include "sim/fields.hpp"

namespace cocoa::sim::ckpt {
class Writer;
class Reader;
}  // namespace cocoa::sim::ckpt

namespace cocoa::est {

/// How a blind robot localizes: the one estimator axis. The first and the
/// last two values are the three systems the paper compares (§4.1-§4.3);
/// EKF-CL and LinCvx are the cooperative-localization neighbours of its
/// grid filter. Odometry stays last: checkpoints range-check against it.
enum class Backend {
    Grid,      ///< §4.3 CoCoA: windowed Bayesian grid fixes, dead reckoning
               ///< re-anchored at each fix (the reproduction default)
    Ekf,       ///< EKF-CL: continuous range fusion with covariance inflation
               ///< on missed windows (Kia & Martinez, arXiv:1608.00609)
    LinCvx,    ///< opportunistic linear-convex combination, near-zero per-fix
               ///< CPU (Safavi & Khan, arXiv:1703.06387)
    Rf,        ///< §4.2 RF only: grid fixes, held constant between windows
    Odometry,  ///< §4.1 odometry only: initial pose given, dead reckoning,
               ///< no RF at all
};

const char* to_string(Backend backend);
/// "grid" | "ekf" | "lincvx" | "rf" | "odom" -> Backend; std::nullopt for
/// anything else.
std::optional<Backend> parse_backend(std::string_view name);

/// Estimator tuning: the one declaration of every knob a backend reads.
/// ScenarioConfig and AgentConfig each hold one by value, and each backend
/// reads the subset it cares about, so a sweep can switch backends without
/// touching the rest of its configuration.
struct Config {
    /// Which RF technique turns window beacons into a fix inside the grid
    /// family (Grid, Rf; §5 pluggability).
    core::RfTechnique technique = core::RfTechnique::BayesianGrid;
    int min_beacons_for_fix = 3;
    /// Ignore beacons weaker than this RSSI (on top of the PDF-table rules).
    double beacon_rssi_cutoff_dbm = -std::numeric_limits<double>::infinity();
    /// Admit beacons whose PDF bin failed the Gaussian fit (the paper's "bad
    /// beacons" from beyond ~40 m; see RfLocalizer::Options). They carry
    /// real information for the EKF too: with the sigma floor, the
    /// innovation gate and rejection inflation they resolve single-anchor
    /// tangential ambiguity the same way they disambiguate the grid's ring
    /// posteriors.
    bool use_non_gaussian_bins = true;

    /// EKF-CL process noise: fractional error on each dead-reckoned
    /// displacement, plus a floor variance accrued per second (m^2/s). The
    /// floor is deliberately generous: odometry drift is bias-driven (grows
    /// faster than a random walk), and an overconfident filter under-weights
    /// its corrections. The pair also drives LinCvx's prior inflation.
    double ekf_q_displacement_frac = 0.1;
    double ekf_q_floor_var_per_s = 0.6;
    /// EKF innovation gate (standard deviations); bad beacons beyond it are
    /// ignored.
    double ekf_gate_sigmas = 4.0;
    /// Floor on the effective range sigma: the PDF-table sigma understates
    /// the true measurement error (anchor SLAM noise, motion during the
    /// window), and an overconfident filter gates itself to death.
    double ekf_min_range_sigma_m = 2.0;
    /// Covariance inflation (m^2) applied whenever the gate rejects a
    /// measurement: persistent disagreement must reopen the filter.
    double ekf_reject_inflation_var = 2.0;
    /// Covariance inflation (m^2) applied at the end of a window in which no
    /// measurement was accepted: under loss bursts or anchor outages the
    /// filter must lose confidence instead of coasting overconfidently —
    /// the graceful-degradation knob of the partially-decentralized EKF.
    double ekf_missed_window_var = 4.0;

    /// LinCvx is opportunistic: any usable beacon updates the estimate.
    int lincvx_min_beacons = 1;

    /// The field list (sim/fields.hpp): counts are at least 1, variances
    /// and fractions finite and >= 0, gates and sigma floors finite and
    /// > 0, and the cutoff any number but NaN (-infinity, the default,
    /// admits every beacon).
    static constexpr auto fields() {
        using namespace sim::fields;
        using C = Config;
        return std::tuple{
            field("technique", &C::technique, up_to(core::RfTechnique::LeastSquares)),
            field("min_beacons_for_fix", &C::min_beacons_for_fix, at_least(1)),
            field("beacon_rssi_cutoff_dbm", &C::beacon_rssi_cutoff_dbm),
            field("use_non_gaussian_bins", &C::use_non_gaussian_bins),
            field("ekf_q_displacement_frac", &C::ekf_q_displacement_frac, non_negative),
            field("ekf_q_floor_var_per_s", &C::ekf_q_floor_var_per_s, non_negative),
            field("ekf_gate_sigmas", &C::ekf_gate_sigmas, positive),
            field("ekf_min_range_sigma_m", &C::ekf_min_range_sigma_m, positive),
            field("ekf_reject_inflation_var", &C::ekf_reject_inflation_var, non_negative),
            field("ekf_missed_window_var", &C::ekf_missed_window_var, non_negative),
            field("lincvx_min_beacons", &C::lincvx_min_beacons, at_least(1)),
        };
    }

    /// Throws std::invalid_argument naming the first field outside its rule.
    void validate() const { sim::fields::check(*this, "est::Config"); }
};
static_assert(sim::fields::lists_every_member<Config>());

/// What a continuous-fusion backend did during the window that just closed.
struct WindowSummary {
    bool fixed = false;       ///< at least one measurement accepted
    int beacons_used = 0;
};

/// A blind robot's position-belief backend: the observe-beacon / dead-reckon
/// / compute-fix / estimate+spread contract extracted from CocoaAgent.
///
/// Call protocol (enforced by the agent):
///  - reset() at start and after a reboot fault; the belief collapses to
///    `position` ("known" pins it, otherwise it is a provisional centre).
///  - predict() on every agent tick with the *measured* odometry
///    displacement — only when integrates_odometry() is true.
///  - When collects_window_beacons() is true the agent buffers the window's
///    beacons and calls compute_fix() + apply_fix() at window end; when
///    false it forwards each beacon to observe_beacon() on arrival and calls
///    end_window() at window end.
///  - compute_fix() must be pure enough to run on a worker thread when
///    pool_safe_fix() is true (the deferred-fix machinery; see
///    AgentConfig::fix_pool). Backends whose fix reads the live belief
///    return false and always compute inline on the event thread.
///  - estimate()/spread_m()/ever_fixed() may be read between any of the
///    above (they are resolution points for deferred fixes at the agent
///    layer, never inside the estimator).
///
/// No backend draws randomness: determinism at any thread count is inherited
/// from the agent's event time-line, the same invariant every prior layer
/// keeps.
class Estimator {
  public:
    virtual ~Estimator() = default;

    virtual void reset(const geom::Vec2& position, bool position_known) = 0;
    virtual void predict(const geom::Vec2& /*measured_delta*/, double /*dt_s*/) {}
    virtual bool integrates_odometry() const { return false; }

    virtual bool collects_window_beacons() const = 0;
    /// Continuous fusion of one beacon; returns whether it was accepted.
    virtual bool observe_beacon(const core::BeaconObservation& /*obs*/) {
        return false;
    }

    virtual std::optional<core::Fix> compute_fix(
        const std::vector<core::BeaconObservation>& /*beacons*/) {
        return std::nullopt;
    }
    virtual bool pool_safe_fix() const { return false; }
    /// Folds a compute_fix() outcome into the belief. `heading` is the
    /// re-anchor heading sampled at window end (grid backend).
    virtual void apply_fix(const std::optional<core::Fix>& /*fix*/,
                           double /*heading*/) {}
    virtual WindowSummary end_window() { return {}; }

    virtual geom::Vec2 estimate() const = 0;
    /// Current belief confidence as an RMS radius in metres.
    virtual double spread_m() const = 0;

    bool ever_fixed() const { return ever_fixed_; }
    double last_fix_spread_m() const { return last_fix_spread_m_; }

    /// Registers backend counters under `node_prefix` (e.g. "node.3.").
    /// The grid backend registers the exact "localizer.*" set the
    /// pre-interface agent did, keeping --counters output byte-identical.
    virtual void register_counters(obs::CounterRegistry& /*registry*/,
                                   const std::string& /*node_prefix*/) const {}
    /// Grid-backend localizer stats (all-zero for the other backends), so
    /// Scenario::result() aggregation is backend-agnostic.
    virtual const core::RfLocalizer::Stats& localizer_stats() const;

    /// Checkpoints the belief state: each backend runs its one walk
    /// (sim/checkpoint.hpp), which starts with walk_fix_bookkeeping().
    virtual void save_state(sim::ckpt::Writer& w) const = 0;
    virtual void load_state(sim::ckpt::Reader& r) = 0;

  protected:
    /// The fix bookkeeping every backend shares, first in its walk.
    template <typename Ar, typename Self>
    static void walk_fix_bookkeeping(Ar& ar, Self& e) {
        ar(e.ever_fixed_, e.last_fix_spread_m_);
    }

    bool ever_fixed_ = false;
    double last_fix_spread_m_ = std::numeric_limits<double>::infinity();
};

/// Builds `backend` with `tuning`. `grid` gives the area (every backend)
/// and the cell size (the grid family: Grid, Rf, Odometry). `odometry` is
/// the agent-owned dead-reckoning estimate the grid backend re-anchors at
/// each fix and reads between fixes; it must outlive the estimator.
std::unique_ptr<Estimator> make_estimator(
    Backend backend, const Config& tuning, const core::GridConfig& grid,
    std::shared_ptr<const phy::PdfTable> table, mobility::OdometryEstimator* odometry);

}  // namespace cocoa::est
