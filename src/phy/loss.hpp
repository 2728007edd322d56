#pragma once

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace cocoa::phy {

/// A timed medium-level degradation: while [start, end) is in effect every
/// propagated frame loses `attenuation_db` of receive power at each receiver
/// and is additionally dropped per receiver with probability `drop_prob`
/// (independent counter-based draws, so determinism survives culling and
/// thread count). Models jamming, duty-cycled interferers, weather fades.
struct LossBurst {
    sim::TimePoint start;
    sim::TimePoint end;
    double drop_prob = 0.0;
    double attenuation_db = 0.0;
};

/// The set of loss bursts affecting a medium. Bursts may overlap: drop
/// probabilities combine independently (p = 1 - prod(1 - p_i)) and
/// attenuations add, as independent interferers would.
class LossSchedule {
  public:
    struct Effect {
        bool active = false;
        double drop_prob = 0.0;
        double attenuation_db = 0.0;
    };

    /// Arms one burst. Throws std::invalid_argument unless drop_prob lies in
    /// [0, 1], attenuation_db is finite and >= 0, and end > start: a burst
    /// may only attenuate or drop, never amplify (the medium's quiet RSSI
    /// draw relies on that).
    void add(const LossBurst& burst) {
        if (!(burst.drop_prob >= 0.0 && burst.drop_prob <= 1.0)) {
            throw std::invalid_argument("LossSchedule: drop_prob " +
                                        std::to_string(burst.drop_prob) +
                                        " outside [0, 1]");
        }
        if (!(burst.attenuation_db >= 0.0) || !std::isfinite(burst.attenuation_db)) {
            throw std::invalid_argument("LossSchedule: attenuation_db " +
                                        std::to_string(burst.attenuation_db) +
                                        " must be finite and >= 0");
        }
        if (burst.end <= burst.start) {
            throw std::invalid_argument("LossSchedule: burst must end after it starts");
        }
        bursts_.push_back(burst);
    }
    bool empty() const { return bursts_.empty(); }
    const std::vector<LossBurst>& bursts() const { return bursts_; }

    /// Combined effect of every burst covering time `t`.
    Effect effect_at(sim::TimePoint t) const {
        Effect effect;
        double pass = 1.0;
        for (const LossBurst& b : bursts_) {
            if (t < b.start || t >= b.end) continue;
            effect.active = true;
            pass *= 1.0 - b.drop_prob;
            effect.attenuation_db += b.attenuation_db;
        }
        if (effect.active) effect.drop_prob = 1.0 - pass;
        return effect;
    }

  private:
    std::vector<LossBurst> bursts_;
};

}  // namespace cocoa::phy
