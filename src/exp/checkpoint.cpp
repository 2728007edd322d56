#include "exp/checkpoint.hpp"

#include <stdexcept>
#include <utility>

#include "core/checkpoint_io.hpp"
#include "sim/checkpoint.hpp"

namespace cocoa::exp {

namespace {
constexpr std::uint32_t kMarkPlan = 0x504c414eu;  // "PLAN"

/// What a scenario blob carries before the run state: the config, whether a
/// fault injector rides along and, if one does, its plan (the armed plan is
/// part of the run state).
template <typename Ar, typename Config, typename Plan>
void walk_setup(Ar& ar, Config& config, bool& has_injector, Plan& plan) {
    core::walk_config(ar, config);
    ar(has_injector);
    if (has_injector) {
        ar.mark(kMarkPlan);
        ar(plan);
    }
}
}  // namespace

std::string save_scenario_checkpoint(const core::Scenario& scenario,
                                     const fault::FaultInjector* injector) {
    static const fault::FaultPlan kNoPlan;
    sim::ckpt::Writer w;
    sim::ckpt::write_header(w, sim::ckpt::Flavor::kScenario);
    bool has_injector = injector != nullptr;
    walk_setup(w, scenario.config(), has_injector, has_injector ? injector->plan() : kNoPlan);
    scenario.save_state(w);
    if (has_injector) w(*injector);
    return w.take();
}

RestoredScenario restore_scenario_checkpoint(
    const std::string& blob, std::shared_ptr<const phy::PdfTable> shared_table) {
    sim::ckpt::Reader r(blob);
    if (sim::ckpt::read_header(r) != sim::ckpt::Flavor::kScenario) {
        throw std::runtime_error(
            "restore_scenario_checkpoint: blob is not a scenario checkpoint");
    }
    core::ScenarioConfig config;
    bool has_injector = false;
    fault::FaultPlan plan;
    walk_setup(r, config, has_injector, plan);

    RestoredScenario out;
    out.scenario = std::make_unique<core::Scenario>(config, std::move(shared_table));
    // The blob's kernel may hold pending fault events, which the injector's
    // handlers build: it must exist before the scenario's state loads.
    if (has_injector) {
        out.injector =
            std::make_unique<fault::FaultInjector>(*out.scenario, std::move(plan));
    }
    out.scenario->load_state(r);
    if (has_injector) r(*out.injector);
    r.expect_end();
    return out;
}

std::string save_swarm_checkpoint(const core::Swarm& swarm) {
    sim::ckpt::Writer w;
    sim::ckpt::write_header(w, sim::ckpt::Flavor::kSwarm);
    core::walk_config(w, swarm.config());
    swarm.save_state(w);
    return w.take();
}

std::unique_ptr<core::Swarm> restore_swarm_checkpoint(const std::string& blob) {
    sim::ckpt::Reader r(blob);
    if (sim::ckpt::read_header(r) != sim::ckpt::Flavor::kSwarm) {
        throw std::runtime_error(
            "restore_swarm_checkpoint: blob is not a swarm checkpoint");
    }
    core::SwarmConfig config;
    core::walk_config(r, config);
    auto swarm = std::make_unique<core::Swarm>(config);
    swarm->load_state(r);
    r.expect_end();
    return swarm;
}

}  // namespace cocoa::exp
