#include "energy/energy.hpp"

#include <numeric>
#include <stdexcept>

#include "sim/checkpoint.hpp"

namespace cocoa::energy {

const char* to_string(RadioState s) {
    switch (s) {
        case RadioState::Off: return "off";
        case RadioState::Sleep: return "sleep";
        case RadioState::Idle: return "idle";
        case RadioState::Rx: return "rx";
        case RadioState::Tx: return "tx";
    }
    return "?";
}

double PowerProfile::power_mw(RadioState s) const {
    switch (s) {
        case RadioState::Off: return off_mw;
        case RadioState::Sleep: return sleep_mw;
        case RadioState::Idle: return idle_mw;
        case RadioState::Rx: return rx_mw;
        case RadioState::Tx: return tx_mw;
    }
    return 0.0;
}

EnergyMeter::EnergyMeter(const PowerProfile& profile, sim::TimePoint start,
                         RadioState initial)
    : profile_(profile), state_(initial), last_change_(start) {}

void EnergyMeter::accrue(sim::TimePoint until) {
    if (until < last_change_) {
        throw std::logic_error("EnergyMeter: time went backwards");
    }
    const sim::Duration dt = until - last_change_;
    state_mj_[index_of(state_)] += profile_.power_mw(state_) * dt.to_seconds();
    state_time_[index_of(state_)] += dt;
    last_change_ = until;
}

void EnergyMeter::change_state(sim::TimePoint when, RadioState next) {
    accrue(when);
    if (next == state_) return;
    // Powering the card up or down has a fixed cost; transitions between
    // awake states (idle <-> rx <-> tx) are free.
    if (is_awake(state_) != is_awake(next)) {
        transition_mj_ += profile_.transition_mj;
    }
    ++transitions_;
    state_ = next;
}

void EnergyMeter::settle(sim::TimePoint when) { accrue(when); }

double EnergyMeter::total_mj() const {
    return std::accumulate(state_mj_.begin(), state_mj_.end(), transition_mj_);
}

void EnergyMeter::save(sim::ckpt::Writer& w) const { w(*this); }

void EnergyMeter::load(sim::ckpt::Reader& r) { r(*this); }

}  // namespace cocoa::energy
