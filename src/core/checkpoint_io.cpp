#include "core/checkpoint_io.hpp"

#include "sim/checkpoint.hpp"

namespace cocoa::core {

void save_config(sim::ckpt::Writer& w, const ScenarioConfig& c) { walk_config(w, c); }

ScenarioConfig load_scenario_config(sim::ckpt::Reader& r) {
    ScenarioConfig c;
    walk_config(r, c);
    return c;
}

void save_config(sim::ckpt::Writer& w, const SwarmConfig& c) { walk_config(w, c); }

SwarmConfig load_swarm_config(sim::ckpt::Reader& r) {
    SwarmConfig c;
    walk_config(r, c);
    return c;
}

void save_calibration_inputs(sim::ckpt::Writer& w, const ScenarioConfig& c) {
    w(c.seed, c.channel, c.calibration);
}

}  // namespace cocoa::core
