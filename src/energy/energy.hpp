#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/counters.hpp"
#include "sim/fields.hpp"
#include "sim/time.hpp"

namespace cocoa::sim::ckpt {
class Writer;
class Reader;
}  // namespace cocoa::sim::ckpt

namespace cocoa::energy {

/// Operating states of an 802.11 radio, ordered for array indexing.
enum class RadioState : std::uint8_t { Off = 0, Sleep, Idle, Rx, Tx };
constexpr RadioState last_enumerator(RadioState) { return RadioState::Tx; }

constexpr std::size_t kNumRadioStates = 5;
constexpr std::size_t index_of(RadioState s) { return static_cast<std::size_t>(s); }
const char* to_string(RadioState s);

/// True for states in which the radio can sense / receive / transmit.
constexpr bool is_awake(RadioState s) {
    return s == RadioState::Idle || s == RadioState::Rx || s == RadioState::Tx;
}

/// Per-state power draw in milliwatts, plus fixed per-transition costs.
///
/// Defaults follow the Lucent/Orinoco WaveLAN measurements of Feeney &
/// Nilsson (INFOCOM'01) as quoted by the paper: idle consumes nearly as much
/// as receive (~900 mW) while sleep draws only ~50 mW — which is why CoCoA's
/// coordinated sleeping is where the savings come from.
struct PowerProfile {
    double tx_mw = 1400.0;
    double rx_mw = 1000.0;
    double idle_mw = 900.0;
    double sleep_mw = 50.0;
    double off_mw = 0.0;
    /// Energy charged when the radio powers up from Sleep/Off to an awake
    /// state, and again when it powers back down (card on/off cost).
    double transition_mj = 5.0;

    double power_mw(RadioState s) const;

    /// The profile used throughout the paper's evaluation.
    static PowerProfile wavelan() { return {}; }

    /// The field list (sim/fields.hpp).
    static constexpr auto fields() {
        using namespace sim::fields;
        using C = PowerProfile;
        return std::tuple{
            field("tx_mw", &C::tx_mw, non_negative),
            field("rx_mw", &C::rx_mw, non_negative),
            field("idle_mw", &C::idle_mw, non_negative),
            field("sleep_mw", &C::sleep_mw, non_negative),
            field("off_mw", &C::off_mw, non_negative),
            field("transition_mj", &C::transition_mj, non_negative),
        };
    }
};
static_assert(sim::fields::lists_every_member<PowerProfile>());

/// Integrates a single radio's energy use over virtual time.
///
/// The owner reports every state change; the meter accumulates
/// power x duration per state plus transition costs. All energies in
/// millijoules.
class EnergyMeter {
  public:
    EnergyMeter(const PowerProfile& profile, sim::TimePoint start,
                RadioState initial = RadioState::Idle);

    RadioState state() const { return state_; }

    /// Moves to `next` at time `when`, charging the elapsed interval at the
    /// old state's power and any transition cost. `when` must not precede the
    /// previous change (throws std::logic_error).
    void change_state(sim::TimePoint when, RadioState next);

    /// Closes the books through `when` without changing state (call at the
    /// end of a simulation before reading totals).
    void settle(sim::TimePoint when);

    double total_mj() const;
    double state_mj(RadioState s) const { return state_mj_[index_of(s)]; }
    double transition_mj() const { return transition_mj_; }
    sim::Duration time_in(RadioState s) const { return state_time_[index_of(s)]; }
    std::uint64_t transitions() const { return transitions_; }

    /// Registers this meter's counters under `prefix` (e.g. "node.3.energy.").
    void register_counters(obs::CounterRegistry& registry,
                           const std::string& prefix) const {
        registry.add(prefix + "transitions", &transitions_);
    }

    /// Checkpoint walk (sim/checkpoint.hpp): the accounting verbatim (state,
    /// book-close time, per-state tallies). The profile is configuration and
    /// is not serialized.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& m) {
        ar(m.state_, m.last_change_, m.state_mj_, m.state_time_, m.transition_mj_,
           m.transitions_);
    }
    void save(sim::ckpt::Writer& w) const;
    void load(sim::ckpt::Reader& r);

  private:
    void accrue(sim::TimePoint until);

    PowerProfile profile_;
    RadioState state_;
    sim::TimePoint last_change_;
    std::array<double, kNumRadioStates> state_mj_{};
    std::array<sim::Duration, kNumRadioStates> state_time_{};
    double transition_mj_ = 0.0;
    std::uint64_t transitions_ = 0;
};

}  // namespace cocoa::energy
