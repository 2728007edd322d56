#pragma once

#include <algorithm>
#include <optional>

#include "sim/fields.hpp"
#include "sim/random.hpp"

namespace cocoa::phy {

/// Radio channel calibrated to the paper's outdoor 802.11b measurements.
///
/// Dual-slope log-distance path loss with distance-dependent Gaussian
/// shadowing. Anchored to the paper's reported behaviour:
///  - RSSI about -80 dBm at 40 m, so signal-strength-to-distance PDFs are
///    Gaussian up to ~40 m (Fig. 1(a)),
///  - beyond 40 m multipath/fading dominates: the shadowing deviation ramps
///    up, producing the noisy non-Gaussian regime of Fig. 1(b),
///  - communication range > 150 m (typical 802.11b).
struct ChannelConfig {
    double tx_power_dbm = 15.0;
    double ref_distance_m = 1.0;
    double ref_loss_db = 45.0;             ///< path loss at ref_distance => -30 dBm at 1 m
    double exponent_near = 3.12;           ///< d <= breakpoint (tuned: -80 dBm at 40 m)
    double exponent_far = 2.0;             ///< d > breakpoint
    double breakpoint_m = 40.0;
    double shadowing_sigma_near_db = 1.5;  ///< d <= breakpoint
    double shadowing_sigma_far_db = 1.5;   ///< d >= sigma_ramp_end
    double sigma_ramp_end_m = 60.0;        ///< sigma ramps linearly across [breakpoint, this]
    /// Mean depth (dB) of multipath deep fades beyond the breakpoint, ramping
    /// from 0 at the breakpoint to this value at sigma_ramp_end. Fades only
    /// ever *attenuate* (exponential, one-sided), which is what makes the
    /// far-field RSSI-to-distance PDFs non-Gaussian (Fig. 1(b)) while leaving
    /// the strong-signal regime clean up to the breakpoint (Fig. 1(a)).
    double fade_mean_far_db = 7.0;
    double rx_sensitivity_dbm = -92.0;     ///< minimum power to decode a frame
    double carrier_sense_dbm = -98.0;      ///< minimum power to defer transmission
    /// Shadowing draws are clamped to ±this many sigma around the mean. A
    /// |z| > 8 Gaussian deviate has probability ~1e-15 per draw, so the clamp
    /// is statistically invisible — but it turns the otherwise unbounded
    /// shadowing tail into a hard bound on sampled RSSI, which is what lets
    /// max_influence_range_m() define an exact interference-culling radius
    /// (deep fades only ever attenuate, so they cannot extend the bound).
    double shadowing_clamp_sigmas = 8.0;

    /// The field list (sim/fields.hpp). Channel::Channel adds the cross-field
    /// rule ref_distance_m < breakpoint_m <= sigma_ramp_end_m.
    static constexpr auto fields() {
        using namespace sim::fields;
        using C = ChannelConfig;
        return std::tuple{
            field("tx_power_dbm", &C::tx_power_dbm, finite),
            field("ref_distance_m", &C::ref_distance_m, positive),
            field("ref_loss_db", &C::ref_loss_db, finite),
            field("exponent_near", &C::exponent_near, positive),
            field("exponent_far", &C::exponent_far, positive),
            field("breakpoint_m", &C::breakpoint_m, positive),
            // A negative sigma inverts the shadowing clamp (cap < -cap), which
            // would break both the influence-radius bound and the quiet-draw
            // proof.
            field("shadowing_sigma_near_db", &C::shadowing_sigma_near_db, non_negative),
            field("shadowing_sigma_far_db", &C::shadowing_sigma_far_db, non_negative),
            field("sigma_ramp_end_m", &C::sigma_ramp_end_m, positive),
            field("fade_mean_far_db", &C::fade_mean_far_db, non_negative),
            field("rx_sensitivity_dbm", &C::rx_sensitivity_dbm, finite),
            field("carrier_sense_dbm", &C::carrier_sense_dbm, finite),
            field("shadowing_clamp_sigmas", &C::shadowing_clamp_sigmas, positive),
        };
    }
};
static_assert(sim::fields::lists_every_member<ChannelConfig>());

class Channel {
  public:
    explicit Channel(const ChannelConfig& config = {});

    const ChannelConfig& config() const { return config_; }

    /// Deterministic mean received power (dBm) at `distance_m` (>= ref dist).
    double mean_rssi_dbm(double distance_m) const;

    /// Shadowing standard deviation (dB) at this distance.
    double shadowing_sigma_db(double distance_m) const;

    /// Mean deep-fade attenuation (dB) at this distance (0 below breakpoint).
    double fade_mean_db(double distance_m) const;

    /// One stochastic RSSI observation from precomputed channel terms — the
    /// exact operation sequence of sample_rssi_dbm, split out so callers that
    /// batch-compute mean/sigma/fade over many receivers (the medium's fanout
    /// kernels) draw bitwise-identical values to the distance-based overload.
    template <typename Rng>
    double sample_rssi_from(double mean_dbm, double sigma_db, double fade_db,
                            Rng& rng) const {
        return finish_rssi(mean_dbm, sigma_db, fade_db, rng.gaussian(0.0, sigma_db),
                           rng);
    }

    /// sample_rssi_from for the counter-based generators, stopping as soon as
    /// the receiver provably cannot sense the frame. Returns std::nullopt
    /// ("quiet") when the mean lies below carrier sense and either the polar
    /// pair's y <= 0 (a non-positive deviate) or the log-free bound
    /// z^2 <= 2 y^2 (1 - r2) / r2^2 (from ln r2 >= 1 - 1/r2) keeps
    /// mean + sigma z at least kQuietMarginDb below the threshold. Fades and
    /// loss bursts only attenuate, so a quiet verdict is final. Otherwise
    /// returns exactly sample_rssi_from's value, having consumed the same
    /// draws. See docs/performance.md, "Quiet receivers", for the proof.
    std::optional<double> sample_rssi_or_quiet(double mean_dbm, double sigma_db,
                                               double fade_db,
                                               sim::SplitMix64& rng) const {
        const bool below = mean_dbm < config_.carrier_sense_dbm;
        // SplitMix64::gaussian returns the mean without drawing when sigma <= 0.
        double shadow = 0.0;
        if (sigma_db <= 0.0) {
            if (below) return std::nullopt;
        } else {
            const sim::SplitMix64::Polar p = rng.polar();
            if (below) {
                if (p.y <= 0.0) return std::nullopt;
                const double gap = config_.carrier_sense_dbm - kQuietMarginDb - mean_dbm;
                if (gap > 0.0 && 2.0 * p.y * p.y * (1.0 - p.r2) * (sigma_db * sigma_db) <=
                                     gap * gap * (p.r2 * p.r2)) {
                    return std::nullopt;
                }
            }
            shadow = p.sample(0.0, sigma_db);
        }
        return finish_rssi(mean_dbm, sigma_db, fade_db, shadow, rng);
    }

    /// Headroom (dB) a quiet verdict keeps below carrier sense: it absorbs the
    /// rounding of the log, the sqrt and the additions the full draw would
    /// perform, each a few ulps of values far below 1e3 dB.
    static constexpr double kQuietMarginDb = 1e-9;

    /// One stochastic RSSI observation. Templated over the generator so the
    /// same draw logic serves both the long-lived RandomStreams (PDF
    /// calibration) and the throwaway counter-based SplitMix64 generators the
    /// medium constructs per (frame, receiver).
    template <typename Rng>
    double sample_rssi_dbm(double distance_m, Rng& rng) const {
        return sample_rssi_from(mean_rssi_dbm(distance_m),
                                shadowing_sigma_db(distance_m),
                                fade_mean_db(distance_m), rng);
    }

    /// Distance at which the mean RSSI equals the receive sensitivity: the
    /// nominal communication range.
    double max_range_m() const { return max_range_m_; }

    /// Distance at which the mean RSSI equals the carrier-sense threshold.
    double carrier_sense_range_m() const { return cs_range_m_; }

    /// Distance beyond which no sampled RSSI can ever reach the carrier-sense
    /// threshold: mean RSSI plus the maximum clamped shadowing boost stays
    /// strictly below carrier_sense_dbm. Radios farther than this from a
    /// transmitter are unaffected by the transmission — the exact culling
    /// radius used by mac::Medium's interference culling.
    double max_influence_range_m() const { return influence_range_m_; }

    bool decodable(double rssi_dbm) const { return rssi_dbm >= config_.rx_sensitivity_dbm; }
    bool sensed(double rssi_dbm) const { return rssi_dbm >= config_.carrier_sense_dbm; }

  private:
    /// The draw's tail once the shadowing deviate is known: clamp it, add it
    /// to the mean, subtract a deep fade.
    template <typename Rng>
    double finish_rssi(double mean_dbm, double sigma_db, double fade_db,
                       double shadow_db, Rng& rng) const {
        const double cap = config_.shadowing_clamp_sigmas * sigma_db;
        double rssi = mean_dbm + std::clamp(shadow_db, -cap, cap);
        if (fade_db > 0.0) {
            rssi -= rng.exponential(fade_db);  // deep fades only ever attenuate
        }
        return rssi;
    }

    /// Distance at which the mean RSSI falls to `threshold_dbm`. Throws
    /// std::invalid_argument naming `field` when no finite distance does.
    double solve_range(double threshold_dbm, const char* field) const;

    ChannelConfig config_;
    double at_break_dbm_ = 0.0;  ///< mean RSSI at the breakpoint
    double max_range_m_ = 0.0;
    double cs_range_m_ = 0.0;
    double influence_range_m_ = 0.0;
};

}  // namespace cocoa::phy
