#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/scenario.hpp"
#include "core/swarm.hpp"
#include "metrics/cdf.hpp"

namespace cocoa::core {
namespace {

using cocoa::sim::Duration;
using cocoa::sim::TimePoint;

/// Down-scaled paper setup that runs in well under a second: 20 robots,
/// 10 anchors, 5 simulated minutes.
ScenarioConfig quick(est::Backend estimator) {
    ScenarioConfig c;
    c.seed = 23;
    c.num_robots = 20;
    c.num_anchors = 10;
    c.duration = Duration::minutes(5);
    c.period = Duration::seconds(50.0);
    c.estimator = estimator;
    return c;
}

TEST(Scenario, SamplesErrorEverySecond) {
    const auto r = run_scenario(quick(est::Backend::Grid));
    EXPECT_EQ(r.avg_error.size(), 300u);
    EXPECT_EQ(r.node_error.size(), 20u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(r.node_error[i].empty()) << "anchor " << i;       // anchors
        EXPECT_EQ(r.node_error[10 + i].size(), 300u) << "blind " << i;
    }
}

TEST(Scenario, DeterministicForSameSeed) {
    const auto a = run_scenario(quick(est::Backend::Grid));
    const auto b = run_scenario(quick(est::Backend::Grid));
    ASSERT_EQ(a.avg_error.size(), b.avg_error.size());
    for (std::size_t i = 0; i < a.avg_error.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.avg_error.samples()[i].value, b.avg_error.samples()[i].value);
    }
    EXPECT_DOUBLE_EQ(a.team_energy.total_mj(), b.team_energy.total_mj());
    EXPECT_EQ(a.executed_events, b.executed_events);
}

TEST(Scenario, KernelFastPathStaysAllocationFree) {
    // The kernel overhaul's steady-state contract, asserted on counters: the
    // overwhelming majority of callbacks fit the 48-byte SBO (misses are the
    // rare control-plane forwards that capture whole packets), and the frame
    // and sensed_by pools recycle nearly every block after warm-up.
    const auto r = run_scenario(quick(est::Backend::Grid));
    std::uint64_t scheduled = 0, sbo_miss = 0, executed = 0;
    std::uint64_t frame_reused = 0, frame_fresh = 0, frame_oversize = 0;
    std::uint64_t sensed_reused = 0, sensed_fresh = 0;
    for (const auto& [name, value] : r.counters) {
        if (name == "kernel.events.scheduled") scheduled = value;
        if (name == "kernel.events.sbo_miss") sbo_miss = value;
        if (name == "kernel.events.executed") executed = value;
        if (name == "kernel.pool.frame.reused") frame_reused = value;
        if (name == "kernel.pool.frame.fresh") frame_fresh = value;
        if (name == "kernel.pool.frame.oversize") frame_oversize = value;
        if (name == "kernel.pool.sensed.reused") sensed_reused = value;
        if (name == "kernel.pool.sensed.fresh") sensed_fresh = value;
    }
    EXPECT_GT(scheduled, 0u);
    EXPECT_EQ(executed, r.executed_events);
    // SBO misses stay a sliver of traffic (< 5%): the per-event fast path
    // (beacons, CCA, carrier-sense timers) never touches the heap.
    EXPECT_LT(sbo_miss * 20, scheduled);
    // Pools: a handful of fresh blocks cover the in-flight high-water mark,
    // everything after that is recycled; nothing falls out of the pool.
    EXPECT_GT(frame_reused, frame_fresh * 10);
    EXPECT_GT(sensed_reused, sensed_fresh * 10);
    EXPECT_EQ(frame_oversize, 0u);
}

/// Batched window-end grid updates (grid_update_threads) are invisible in
/// the results: every error sample, every counter and the event count are
/// byte-identical at any pool size — the fold-at-resolution-point contract.
TEST(Scenario, BatchedGridUpdatesAreByteIdentical) {
    const auto inline_fixes = run_scenario(quick(est::Backend::Grid));
    for (const int threads : {1, 4}) {
        ScenarioConfig c = quick(est::Backend::Grid);
        c.grid_update_threads = threads;
        const auto batched = run_scenario(c);
        ASSERT_EQ(batched.avg_error.size(), inline_fixes.avg_error.size());
        for (std::size_t i = 0; i < batched.avg_error.size(); ++i) {
            ASSERT_DOUBLE_EQ(batched.avg_error.samples()[i].value,
                             inline_fixes.avg_error.samples()[i].value)
                << "sample " << i << " with " << threads << " grid threads";
        }
        EXPECT_EQ(batched.executed_events, inline_fixes.executed_events);
        EXPECT_EQ(batched.agent_totals.fixes, inline_fixes.agent_totals.fixes);
        ASSERT_EQ(batched.counters.size(), inline_fixes.counters.size());
        for (std::size_t i = 0; i < batched.counters.size(); ++i) {
            EXPECT_EQ(batched.counters[i], inline_fixes.counters[i])
                << "counter " << batched.counters[i].first << " with "
                << threads << " grid threads";
        }
    }
}

/// The rf estimator holds the estimate between fixes, so a deferred fix
/// result is observable directly through estimate(); it must still resolve
/// before any read. Also covers the estimator x batching matrix beyond grid.
TEST(Scenario, BatchedRfOnlyMatchesInline) {
    const auto inline_fixes = run_scenario(quick(est::Backend::Rf));
    ScenarioConfig c = quick(est::Backend::Rf);
    c.grid_update_threads = 2;
    const auto batched = run_scenario(c);
    ASSERT_EQ(batched.avg_error.size(), inline_fixes.avg_error.size());
    for (std::size_t i = 0; i < batched.avg_error.size(); ++i) {
        ASSERT_DOUBLE_EQ(batched.avg_error.samples()[i].value,
                         inline_fixes.avg_error.samples()[i].value);
    }
    EXPECT_EQ(batched.agent_totals.fixes, inline_fixes.agent_totals.fixes);
}

/// Every robot's grid draws its kernels from the scenario's one cache, so a
/// fig7-shaped run (50 robots, T = 100 s) builds at most one kernel per
/// usable PDF-table bin — not one per grid per eviction.
TEST(Scenario, GridsShareOneKernelPerBin) {
    ScenarioConfig c;
    c.seed = 7;
    c.duration = Duration::minutes(5);
    Scenario scenario(c);
    scenario.run();
    ASSERT_GT(scenario.result().localizer_totals.fixes, 0u);
    EXPECT_GT(scenario.kernel_cache().size(), 0u);
    EXPECT_LE(scenario.kernel_cache().size(), scenario.pdf_table().usable_bin_count());
}

TEST(Scenario, DifferentSeedsDiffer) {
    auto cfg = quick(est::Backend::Grid);
    const auto a = run_scenario(cfg);
    cfg.seed = 24;
    const auto b = run_scenario(cfg);
    EXPECT_NE(a.avg_error.stats().mean(), b.avg_error.stats().mean());
}

TEST(Scenario, PaperOrderingCocoaBeatsRfOnlyBeatsOdometry) {
    // The headline comparison of §4.3 (Fig. 7): CoCoA < RF-only, and both
    // beat odometry-only by the end of the run.
    const auto cocoa = run_scenario(quick(est::Backend::Grid));
    const auto rf = run_scenario(quick(est::Backend::Rf));
    const auto odo = run_scenario(quick(est::Backend::Odometry));

    const auto late = [](const ScenarioResult& r) {
        return r.avg_error.mean_in(TimePoint::from_seconds(150.0),
                                   TimePoint::from_seconds(301.0));
    };
    EXPECT_LT(late(cocoa), late(rf));
    // Odometry drift at 5 min is already worse than CoCoA.
    EXPECT_LT(late(cocoa), late(odo));
}

TEST(Scenario, SleepCoordinationSavesEnergy) {
    // Fig. 9(b): without coordination the team burns several times more.
    auto cfg = quick(est::Backend::Grid);
    const auto coordinated = run_scenario(cfg);
    cfg.sleep_coordination = false;
    const auto uncoordinated = run_scenario(cfg);
    EXPECT_GT(uncoordinated.team_energy.total_mj(),
              2.0 * coordinated.team_energy.total_mj());
    EXPECT_GT(coordinated.team_energy.sleep_mj, 0.0);
    EXPECT_DOUBLE_EQ(uncoordinated.team_energy.sleep_mj, 0.0);
}

TEST(Scenario, LargerPeriodUsesLessEnergy) {
    auto cfg = quick(est::Backend::Grid);
    cfg.period = Duration::seconds(25.0);
    const auto small_t = run_scenario(cfg);
    cfg.period = Duration::seconds(100.0);
    const auto large_t = run_scenario(cfg);
    EXPECT_LT(large_t.team_energy.total_mj(), small_t.team_energy.total_mj());
}

TEST(Scenario, RfModesLocalizeWithoutInitialPosition) {
    // §4.2: "RF localization does not require an initial position".
    const auto r = run_scenario(quick(est::Backend::Rf));
    // Error at the end is far below the initial distance-to-centre (~75 m).
    EXPECT_LT(r.avg_error.mean_in(TimePoint::from_seconds(250.0),
                                  TimePoint::from_seconds(301.0)),
              40.0);
    EXPECT_GT(r.agent_totals.fixes, 0u);
}

TEST(Scenario, ErrorsAtExtractsBlindRobots) {
    const auto r = run_scenario(quick(est::Backend::Grid));
    const auto errs = r.errors_at(TimePoint::from_seconds(200.0));
    EXPECT_EQ(errs.size(), 10u);
    const metrics::Cdf cdf(errs);
    EXPECT_GT(cdf.quantile(1.0).value(), 0.0);
}

TEST(Scenario, EnergyBreakdownAddsUp) {
    const auto r = run_scenario(quick(est::Backend::Grid));
    const auto& e = r.team_energy;
    EXPECT_GT(e.tx_mj, 0.0);
    EXPECT_GT(e.rx_mj, 0.0);
    EXPECT_GT(e.idle_mj, 0.0);
    EXPECT_GT(e.sleep_mj, 0.0);
    EXPECT_GT(e.transitions_mj, 0.0);
    EXPECT_NEAR(e.total_mj(),
                e.tx_mj + e.rx_mj + e.idle_mj + e.sleep_mj + e.transitions_mj, 1e-9);
    // Sanity scale: 20 radios for 300 s never exceeds always-idle-equivalent.
    EXPECT_LT(e.total_mj(), 20.0 * 300.0 * 900.0 * 1.1);
}

TEST(Scenario, MidRunInspection) {
    Scenario s(quick(est::Backend::Grid));
    s.run_until(TimePoint::from_seconds(100.0));
    const auto mid = s.result();
    EXPECT_EQ(mid.avg_error.size(), 100u);
    s.run();
    const auto full = s.result();
    EXPECT_EQ(full.avg_error.size(), 300u);
}

TEST(Scenario, CocoaErrorSawtoothsWithinPeriods) {
    // Fig. 6/8 structure: error is lowest right after a transmit window and
    // grows toward the period end.
    auto cfg = quick(est::Backend::Rf);
    cfg.sync = SyncMode::PerfectClock;
    cfg.period = Duration::seconds(60.0);
    cfg.duration = Duration::minutes(6);
    const auto r = run_scenario(cfg);
    metrics::RunningStat after_window;
    metrics::RunningStat before_window;
    for (int period = 1; period < 6; ++period) {
        const double t0 = 60.0 * period;
        after_window.add(r.avg_error.value_at(TimePoint::from_seconds(t0 + 6.0)));
        before_window.add(r.avg_error.value_at(TimePoint::from_seconds(t0 + 59.0)));
    }
    EXPECT_LT(after_window.mean(), before_window.mean());
}

TEST(Scenario, FewerAnchorsWorseAccuracy) {
    // Fig. 10's trend at small scale.
    auto cfg = quick(est::Backend::Grid);
    cfg.num_anchors = 10;
    const auto many = run_scenario(cfg);
    cfg.seed = 23;
    cfg.num_anchors = 3;
    const auto few = run_scenario(cfg);
    EXPECT_LT(many.avg_error.stats().mean(), few.avg_error.stats().mean());
}

TEST(Scenario, MrmmAndPerfectClockBothLocalize) {
    auto cfg = quick(est::Backend::Grid);
    cfg.sync = SyncMode::Mrmm;
    const auto mrmm = run_scenario(cfg);
    cfg.sync = SyncMode::PerfectClock;
    const auto perfect = run_scenario(cfg);
    const auto late = [](const ScenarioResult& r) {
        return r.avg_error.mean_in(TimePoint::from_seconds(150.0),
                                   TimePoint::from_seconds(301.0));
    };
    // Coarse sync costs a little accuracy but stays in the same regime.
    EXPECT_LT(late(mrmm), 3.0 * late(perfect) + 5.0);
    EXPECT_GT(mrmm.agent_totals.syncs_received, 0u);
}

TEST(Scenario, PositionTraceRecordsAllRobots) {
    Scenario s(quick(est::Backend::Grid));
    s.enable_position_trace(Duration::seconds(10.0));
    s.run_until(TimePoint::from_seconds(60.0));
    // 6 snapshots x 20 robots.
    EXPECT_EQ(s.position_trace().size(), 120u);
    for (const auto& row : s.position_trace()) {
        EXPECT_TRUE(geom::Rect::square(200.0).contains(row.truth));
    }
    std::ostringstream csv;
    s.write_position_trace_csv(csv);
    EXPECT_NE(csv.str().find("t_s,node,role"), std::string::npos);
    EXPECT_NE(csv.str().find("anchor"), std::string::npos);
    EXPECT_NE(csv.str().find("blind"), std::string::npos);
}

TEST(Scenario, PositionTraceRejectsBadInterval) {
    Scenario s(quick(est::Backend::Grid));
    EXPECT_THROW(s.enable_position_trace(Duration::zero()), std::invalid_argument);
}

TEST(Scenario, ValidateRejectsNonFiniteSpeedsAndArea) {
    // Every guard is NaN-rejecting: with `max_speed < min_speed` a NaN vmax
    // passed validate() and the waypoint model spun forever on a NaN leg.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto rejects = [](auto mutate) {
        ScenarioConfig c = quick(est::Backend::Grid);
        mutate(c);
        EXPECT_THROW(c.validate(), std::invalid_argument);
    };
    rejects([&](ScenarioConfig& c) { c.max_speed = nan; });
    rejects([&](ScenarioConfig& c) { c.min_speed = nan; });
    rejects([&](ScenarioConfig& c) { c.max_speed = inf; });
    rejects([&](ScenarioConfig& c) { c.area_side_m = nan; });
    rejects([&](ScenarioConfig& c) { c.area_side_m = inf; });
    EXPECT_NO_THROW(quick(est::Backend::Grid).validate());

    const auto swarm_rejects = [](auto mutate) {
        SwarmConfig c;
        mutate(c);
        EXPECT_THROW(c.validate(), std::invalid_argument);
    };
    swarm_rejects([&](SwarmConfig& c) { c.max_speed = nan; });
    swarm_rejects([&](SwarmConfig& c) { c.min_speed = nan; });
    swarm_rejects([&](SwarmConfig& c) { c.density_per_m2 = nan; });
    swarm_rejects([&](SwarmConfig& c) { c.density_per_m2 = inf; });
    EXPECT_NO_THROW(SwarmConfig{}.validate());
}

/// The grid settings and the estimator tuning are validated with the rest
/// of the config, so a scenario built in code and one restored from a blob
/// fail the same way: with an error naming the field, before any grid is
/// sized or any filter runs.
TEST(Scenario, ValidateRejectsBadGridAndEstimatorTuning) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto error_of = [](auto mutate) -> std::string {
        ScenarioConfig c = quick(est::Backend::Grid);
        mutate(c);
        try {
            c.validate();
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "";
    };
    EXPECT_NE(error_of([&](ScenarioConfig& c) { c.cell_m = nan; }).find("cell_m"),
              std::string::npos);
    EXPECT_NE(error_of([&](ScenarioConfig& c) { c.cell_m = 0.0; }).find("cell_m"),
              std::string::npos);
    EXPECT_NE(error_of([&](ScenarioConfig& c) { c.floor_fraction = nan; })
                  .find("floor_fraction"),
              std::string::npos);
    EXPECT_NE(error_of([&](ScenarioConfig& c) { c.tuning.ekf_gate_sigmas = nan; })
                  .find("ekf_gate_sigmas"),
              std::string::npos);
    EXPECT_NE(error_of([&](ScenarioConfig& c) { c.tuning.min_beacons_for_fix = 0; })
                  .find("min_beacons_for_fix"),
              std::string::npos);
    EXPECT_EQ(error_of([](ScenarioConfig&) {}), "");

    // A finite but absurdly small cell passes validate(); the grid itself
    // refuses to size it.
    ScenarioConfig tiny = quick(est::Backend::Grid);
    tiny.cell_m = 1e-300;
    EXPECT_NO_THROW(tiny.validate());
    EXPECT_THROW(Scenario{tiny}, std::invalid_argument);
}

TEST(Scenario, MissedSyncRobotsKeepSchedule) {
    // Even with heavy clock skew, robots that keep missing SYNCs still fix
    // eventually thanks to the wake guard.
    auto cfg = quick(est::Backend::Grid);
    cfg.clock_skew_sigma_s = 0.3;
    const auto r = run_scenario(cfg);
    EXPECT_GT(r.agent_totals.fixes, 0u);
    EXPECT_LT(r.avg_error.mean_in(TimePoint::from_seconds(150.0),
                                  TimePoint::from_seconds(301.0)),
              60.0);
}


TEST(Scenario, CullingOnOffBitIdentical) {
    // Large enough that the influence radius leaves most radios out of range
    // of any given transmission, so culling actually skips work; the run must
    // still be indistinguishable from the unculled one, down to every counter.
    ScenarioConfig base = quick(est::Backend::Grid);
    base.area_side_m = 2800.0;
    base.duration = Duration::minutes(3);

    ScenarioConfig culled = base;
    culled.medium.interference_culling = true;
    ScenarioConfig full = base;
    full.medium.interference_culling = false;

    const auto a = run_scenario(culled);
    const auto b = run_scenario(full);

    EXPECT_GT(a.medium_stats.radios_culled, 0u);
    EXPECT_EQ(b.medium_stats.radios_culled, 0u);

    EXPECT_EQ(a.executed_events, b.executed_events);
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
        EXPECT_EQ(a.counters[i].first, b.counters[i].first);
        EXPECT_EQ(a.counters[i].second, b.counters[i].second)
            << "counter " << a.counters[i].first;
    }
    ASSERT_EQ(a.avg_error.size(), b.avg_error.size());
    for (std::size_t i = 0; i < a.avg_error.size(); ++i) {
        EXPECT_EQ(a.avg_error.samples()[i].value, b.avg_error.samples()[i].value);
    }
    EXPECT_EQ(a.team_energy.total_mj(), b.team_energy.total_mj());
}

}  // namespace
}  // namespace cocoa::core
