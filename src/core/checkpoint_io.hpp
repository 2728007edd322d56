#pragma once

#include <type_traits>

#include "core/scenario.hpp"
#include "core/swarm.hpp"

namespace cocoa::sim::ckpt {
class Writer;
class Reader;
}  // namespace cocoa::sim::ckpt

namespace cocoa::core {

/// The config section of a checkpoint blob: a mark, then the struct's field
/// list (sim/fields.hpp), so a `--restore` in a fresh process can rebuild the
/// exact scenario the blob was taken from without any side-channel
/// configuration. A restore reads without range checks; Scenario and Swarm
/// validate what they are built from. Layout changes bump
/// ckpt::kFormatVersion.
template <typename Ar, typename Config>
void walk_config(Ar& ar, Config& config) {
    constexpr bool scenario = std::is_same_v<std::remove_const_t<Config>, ScenarioConfig>;
    ar.mark(scenario ? 0x53434647u /* "SCFG" */ : 0x57434647u /* "WCFG" */);
    ar(config);
}

/// walk_config entry points.
void save_config(sim::ckpt::Writer& w, const ScenarioConfig& config);
ScenarioConfig load_scenario_config(sim::ckpt::Reader& r);

void save_config(sim::ckpt::Writer& w, const SwarmConfig& config);
SwarmConfig load_swarm_config(sim::ckpt::Reader& r);

/// Serializes exactly what Scenario's PDF-table calibration reads: the seed
/// (its "calibration" stream), the channel and the calibration settings.
/// Configs that write the same bytes calibrate identical tables, so one
/// table can serve every scenario built from any of them.
void save_calibration_inputs(sim::ckpt::Writer& w, const ScenarioConfig& config);

}  // namespace cocoa::core
