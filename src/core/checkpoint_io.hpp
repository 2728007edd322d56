#pragma once

#include "core/scenario.hpp"
#include "core/swarm.hpp"

namespace cocoa::sim::ckpt {
class Writer;
class Reader;
}  // namespace cocoa::sim::ckpt

namespace cocoa::core {

/// Serializes a complete ScenarioConfig / SwarmConfig into a checkpoint
/// blob, walking each struct's field list (sim/fields.hpp), so a `--restore`
/// in a fresh process can rebuild the exact scenario the blob was taken from
/// without any side-channel configuration. The loaders read without range
/// checks; Scenario and Swarm validate what they are built from. Layout
/// changes bump ckpt::kFormatVersion.
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
