#pragma once

#include <memory>
#include <string>

#include "core/scenario.hpp"
#include "core/swarm.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"

namespace cocoa::exp {

/// Serializes one scenario run — config, fault plan (when an injector is
/// attached), full simulation state — into a self-contained blob a fresh
/// process can resume byte-identically from. Call between events only
/// (after run_until returns).
std::string save_scenario_checkpoint(const core::Scenario& scenario,
                                     const fault::FaultInjector* injector = nullptr);

/// A scenario rebuilt from a blob, ready for run()/run_until(). The injector
/// is present iff the blob carried one; it is already restored (counters
/// re-registered, realized intervals back) — do NOT arm() it again.
struct RestoredScenario {
    std::unique_ptr<core::Scenario> scenario;
    std::unique_ptr<fault::FaultInjector> injector;
};

/// Restores a scenario checkpoint. `shared_table` skips the PDF-table
/// calibration (fork path: the table is a pure function of (channel,
/// calibration, seed), all inside the blob's config, so sharing it changes
/// nothing); null recalibrates from the restored config.
RestoredScenario restore_scenario_checkpoint(
    const std::string& blob,
    std::shared_ptr<const phy::PdfTable> shared_table = nullptr);

/// Swarm-family checkpoints (cocoa_sim --nodes runs).
std::string save_swarm_checkpoint(const core::Swarm& swarm);
std::unique_ptr<core::Swarm> restore_swarm_checkpoint(const std::string& blob);

}  // namespace cocoa::exp
