#include "core/checkpoint_io.hpp"

#include "sim/checkpoint.hpp"
#include "sim/fields.hpp"

namespace cocoa::core {

namespace {

constexpr std::uint32_t kMarkScenarioConfig = 0x53434647u;  // "SCFG"
constexpr std::uint32_t kMarkSwarmConfig = 0x57434647u;     // "WCFG"

}  // namespace

void save_config(sim::ckpt::Writer& w, const ScenarioConfig& c) {
    w.mark(kMarkScenarioConfig);
    sim::fields::write(w, c);
}

ScenarioConfig load_scenario_config(sim::ckpt::Reader& r) {
    r.expect(kMarkScenarioConfig);
    return sim::fields::read<ScenarioConfig>(r);
}

void save_config(sim::ckpt::Writer& w, const SwarmConfig& c) {
    w.mark(kMarkSwarmConfig);
    sim::fields::write(w, c);
}

SwarmConfig load_swarm_config(sim::ckpt::Reader& r) {
    r.expect(kMarkSwarmConfig);
    return sim::fields::read<SwarmConfig>(r);
}

void save_calibration_inputs(sim::ckpt::Writer& w, const ScenarioConfig& c) {
    w.u64(c.seed);
    sim::fields::write(w, c.channel);
    sim::fields::write(w, c.calibration);
}

}  // namespace cocoa::core
