#include "exp/checkpoint.hpp"

#include <stdexcept>
#include <utility>

#include "core/checkpoint_io.hpp"
#include "sim/checkpoint.hpp"

namespace cocoa::exp {

namespace {
constexpr std::uint32_t kMarkPlan = 0x504c414eu;  // "PLAN"
}  // namespace

void save_plan(sim::ckpt::Writer& w, const fault::FaultPlan& plan) {
    w.mark(kMarkPlan);
    w.u64(plan.events.size());
    for (const fault::FaultEvent& e : plan.events) {
        w.u32(static_cast<std::uint32_t>(e.kind));
        w.time(e.at);
        w.dur(e.duration);
        w.i32(e.node);
        w.i32(e.node_end);
        w.f64(e.drop_prob);
        w.f64(e.attenuation_db);
        w.f64(e.offset_s);
        w.f64(e.scale);
        w.f64(e.budget_mj);
    }
    w.f64(plan.avail_threshold_m);
    w.dur(plan.battery_check);
}

fault::FaultPlan load_plan(sim::ckpt::Reader& r) {
    r.expect(kMarkPlan);
    fault::FaultPlan plan;
    const std::uint64_t n = r.u64();
    plan.events.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        fault::FaultEvent e;
        e.kind = r.enumerator(fault::FaultKind::Battery);
        e.at = r.time();
        e.duration = r.dur();
        e.node = r.i32();
        e.node_end = r.i32();
        e.drop_prob = r.f64();
        e.attenuation_db = r.f64();
        e.offset_s = r.f64();
        e.scale = r.f64();
        e.budget_mj = r.f64();
        plan.events.push_back(e);
    }
    plan.avail_threshold_m = r.f64();
    plan.battery_check = r.dur();
    return plan;
}

std::string save_scenario_checkpoint(const core::Scenario& scenario,
                                     const fault::FaultInjector* injector) {
    sim::ckpt::Writer w;
    sim::ckpt::write_header(w, sim::ckpt::Flavor::kScenario);
    core::save_config(w, scenario.config());
    w.b(injector != nullptr);
    if (injector != nullptr) save_plan(w, injector->plan());
    scenario.save_state(w);
    if (injector != nullptr) injector->save_state(w);
    return w.take();
}

RestoredScenario restore_scenario_checkpoint(
    const std::string& blob, std::shared_ptr<const phy::PdfTable> shared_table) {
    sim::ckpt::Reader r(blob);
    if (sim::ckpt::read_header(r) != sim::ckpt::Flavor::kScenario) {
        throw std::runtime_error(
            "restore_scenario_checkpoint: blob is not a scenario checkpoint");
    }
    const core::ScenarioConfig config = core::load_scenario_config(r);
    const bool has_injector = r.b();
    fault::FaultPlan plan;
    if (has_injector) plan = load_plan(r);

    RestoredScenario out;
    out.scenario = std::make_unique<core::Scenario>(config, std::move(shared_table));
    if (has_injector) {
        out.injector =
            std::make_unique<fault::FaultInjector>(*out.scenario, std::move(plan));
        // The blob's kernel may hold pending fault events; the injector's
        // rebuilders join the scenario's own registry for load_kernel.
        out.scenario->load_state(r, [&](sim::ckpt::CallbackRegistry& reg) {
            out.injector->register_rebuilders(reg);
        });
        out.injector->load_state(r);
    } else {
        out.scenario->load_state(r);
    }
    r.expect_end();
    return out;
}

std::string save_swarm_checkpoint(const core::Swarm& swarm) {
    sim::ckpt::Writer w;
    sim::ckpt::write_header(w, sim::ckpt::Flavor::kSwarm);
    core::save_config(w, swarm.config());
    swarm.save_state(w);
    return w.take();
}

std::unique_ptr<core::Swarm> restore_swarm_checkpoint(const std::string& blob) {
    sim::ckpt::Reader r(blob);
    if (sim::ckpt::read_header(r) != sim::ckpt::Flavor::kSwarm) {
        throw std::runtime_error(
            "restore_swarm_checkpoint: blob is not a swarm checkpoint");
    }
    const core::SwarmConfig config = core::load_swarm_config(r);
    auto swarm = std::make_unique<core::Swarm>(config);
    swarm->load_state(r);
    r.expect_end();
    return swarm;
}

}  // namespace cocoa::exp
