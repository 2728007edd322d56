#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "exp/replication.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "mobility/odometry.hpp"

namespace cocoa::fault {
namespace {

using cocoa::sim::Duration;
using cocoa::sim::TimePoint;

core::ScenarioConfig small_config() {
    core::ScenarioConfig c;
    c.seed = 77;
    c.num_robots = 12;
    c.num_anchors = 6;
    c.duration = Duration::seconds(180.0);
    c.period = Duration::seconds(25.0);
    return c;
}

// ---------------------------------------------------------------- plan specs

TEST(FaultPlan, ParsesEveryKind) {
    const FaultPlan plan = FaultPlan::parse(
        "crash@300:node=3;"
        "reboot@100+60:nodes=2-4;"
        "outage@50+10:node=1;"
        "loss@600+30:p=0.25,db=6;"
        "jam@700+5:db=20;"
        "drift@10:node=5,s=0.4;"
        "odo@20+40:node=6,scale=3;"
        "battery@0:node=7,budget_kj=1.5");
    ASSERT_EQ(plan.events.size(), 8u);

    EXPECT_EQ(plan.events[0].kind, FaultKind::Crash);
    EXPECT_DOUBLE_EQ(plan.events[0].at.to_seconds(), 300.0);
    EXPECT_EQ(plan.events[0].node, 3);

    EXPECT_EQ(plan.events[1].kind, FaultKind::Reboot);
    EXPECT_DOUBLE_EQ(plan.events[1].duration.to_seconds(), 60.0);
    EXPECT_EQ(plan.events[1].first_node(), 2);
    EXPECT_EQ(plan.events[1].last_node(), 4);

    EXPECT_EQ(plan.events[3].kind, FaultKind::Loss);
    EXPECT_DOUBLE_EQ(plan.events[3].drop_prob, 0.25);
    EXPECT_DOUBLE_EQ(plan.events[3].attenuation_db, 6.0);

    // jam = loss with mandatory attenuation, p defaulting to 0.
    EXPECT_EQ(plan.events[4].kind, FaultKind::Loss);
    EXPECT_DOUBLE_EQ(plan.events[4].drop_prob, 0.0);
    EXPECT_DOUBLE_EQ(plan.events[4].attenuation_db, 20.0);

    EXPECT_DOUBLE_EQ(plan.events[5].offset_s, 0.4);
    EXPECT_DOUBLE_EQ(plan.events[6].scale, 3.0);
    EXPECT_DOUBLE_EQ(plan.events[7].budget_mj, 1.5e6);

    EXPECT_FALSE(plan.summary().empty());
}

TEST(FaultPlan, BareLossDefaultsToFullDrop) {
    const FaultPlan plan = FaultPlan::parse("loss@10+5");
    ASSERT_EQ(plan.events.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.events[0].drop_prob, 1.0);
}

TEST(FaultPlan, RejectsIllFormedSpecs) {
    EXPECT_THROW(FaultPlan::parse("meteor@10:node=1"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("crash@nonsense:node=1"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("crash@10"), std::invalid_argument);  // no node
    EXPECT_THROW(FaultPlan::parse("crash@10+5:node=1"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("reboot@10:node=1"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("loss@10+5:p=1.5"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("loss@10+5:node=2,p=0.5"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("jam@10+5"), std::invalid_argument);  // no db
    EXPECT_THROW(FaultPlan::parse("drift@10:node=1,s=0"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("odo@10:node=1,scale=0"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("battery@0:node=1"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("crash@10:nodes=5-2"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("crash@10:node=1,bogus=3"), std::invalid_argument);
}

TEST(FaultPlan, RejectsNonFiniteAndOutOfRangeNumbersNamingTheToken) {
    const auto message = [](const std::string& spec) -> std::string {
        try {
            FaultPlan::parse(spec);
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "accepted";
    };
    const auto expect_error = [&](const std::string& spec, const std::string& needle) {
        const std::string what = message(spec);
        EXPECT_NE(what.find(needle), std::string::npos) << spec << " -> " << what;
    };
    expect_error("loss@100+50:p=nan", "not a finite number: 'nan'");
    expect_error("loss@100+50:db=nan", "not a finite number: 'nan'");
    expect_error("jam@100+50:db=inf", "not a finite number: 'inf'");
    expect_error("drift@10:node=1,s=-inf", "not a finite number: '-inf'");
    expect_error("loss@nan+50", "not a finite number: 'nan'");
    expect_error("loss@10+nan", "not a finite number: 'nan'");
    // Past ~291 years the seconds-to-nanoseconds cast would overflow.
    expect_error("crash@1e300:node=1", "time out of range: '1e300'");
    expect_error("outage@10+1e12:node=1", "time out of range: '1e12'");
    expect_error("crash@10:node=1e30", "node id must be an integer");
    expect_error("crash@10:node=1e30", "got '1e30'");
    expect_error("crash@10:node=-1", "got '-1'");
    expect_error("crash@10:node=2.5", "got '2.5'");
    expect_error("crash@10:node=2147483648", "got '2147483648'");
    expect_error("outage@10+5:nodes=1-2.5", "got '2.5'");
    expect_error("outage@10+5:nodes=0-1e10", "got '1e10'");
    // The edges themselves still parse.
    EXPECT_EQ(FaultPlan::parse("crash@10:node=2147483647").events[0].node, 2147483647);
    EXPECT_EQ(FaultPlan::parse("crash@9.2e9:node=0").events.size(), 1u);
}

TEST(FaultPlan, ValidateRejectsNaNFieldsInPlansBuiltInCode) {
    FaultEvent loss;
    loss.kind = FaultKind::Loss;
    loss.duration = sim::Duration::seconds(5.0);
    loss.drop_prob = std::nan("");
    FaultPlan plan;
    plan.events = {loss};
    EXPECT_THROW(plan.validate(), std::invalid_argument);
    plan.events[0].drop_prob = 0.5;
    plan.events[0].attenuation_db = std::nan("");
    EXPECT_THROW(plan.validate(), std::invalid_argument);
    plan.events[0].attenuation_db = 3.0;
    EXPECT_NO_THROW(plan.validate());
    plan.avail_threshold_m = std::nan("");
    EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, ParsesPlanFileWithComments) {
    const std::string path = ::testing::TempDir() + "fault_plan_test.txt";
    {
        std::ofstream out(path);
        out << "# resilience drill\n"
            << "crash@60:node=2\n"
            << "\n"
            << "loss@90+15:p=0.5   # mid-run burst\n";
    }
    const FaultPlan plan = FaultPlan::parse_file(path);
    std::remove(path.c_str());
    ASSERT_EQ(plan.events.size(), 2u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::Crash);
    EXPECT_EQ(plan.events[1].kind, FaultKind::Loss);
    EXPECT_THROW(FaultPlan::parse_file("/no/such/fault_plan"), std::runtime_error);
}

TEST(FaultPlan, AnchorCrashPlanKillsHighestIdsFirst) {
    const FaultPlan plan =
        anchor_crash_plan(6, 2, TimePoint::from_seconds(100.0));
    ASSERT_EQ(plan.events.size(), 2u);
    // Highest anchor ids die so the sync robot (node 0) is the last to go.
    EXPECT_EQ(plan.events[0].node, 5);
    EXPECT_EQ(plan.events[1].node, 4);
    EXPECT_TRUE(anchor_crash_plan(6, 0, TimePoint::from_seconds(1.0)).empty());
}

// ------------------------------------------------------------- the injector

TEST(FaultInjector, RejectsOutOfRangeNodes) {
    core::Scenario s(small_config());
    EXPECT_THROW(FaultInjector(s, FaultPlan::parse("crash@10:node=12")),
                 std::invalid_argument);
    EXPECT_THROW(FaultInjector(s, FaultPlan::parse("outage@10+5:nodes=10-14")),
                 std::invalid_argument);
}

TEST(FaultInjector, ArmTwiceThrows) {
    core::Scenario s(small_config());
    FaultInjector injector(s, FaultPlan::parse("crash@10:node=2"));
    injector.arm();
    EXPECT_THROW(injector.arm(), std::logic_error);
}

TEST(FaultInjector, CrashSilencesAnchorAndCountersAppear) {
    core::Scenario s(small_config());
    FaultInjector injector(s, FaultPlan::parse("crash@40:node=2"));
    injector.arm();
    s.run_until(TimePoint::from_seconds(39.0));
    const auto sent_at_crash = s.agent(2).stats().beacons_sent;
    EXPECT_GT(sent_at_crash, 0u);
    s.run();
    EXPECT_EQ(s.agent(2).stats().beacons_sent, sent_at_crash);
    EXPECT_TRUE(s.world().node(2).radio().is_off());
    EXPECT_EQ(injector.stats().crashes, 1u);
    // fault.* counters exist in the registry because the plan is non-empty.
    bool saw_fault_counter = false;
    for (const auto& [name, value] : s.result().counters) {
        if (name.rfind("fault.", 0) == 0) saw_fault_counter = true;
    }
    EXPECT_TRUE(saw_fault_counter);
}

TEST(FaultInjector, RebootRevivesBeaconing) {
    core::ScenarioConfig c = small_config();
    c.duration = Duration::seconds(240.0);
    core::Scenario s(c);
    FaultInjector injector(s, FaultPlan::parse("reboot@40+50:node=2"));
    injector.arm();
    s.run_until(TimePoint::from_seconds(90.0));
    const auto sent_during = s.agent(2).stats().beacons_sent;
    EXPECT_TRUE(s.world().node(2).radio().is_off() ||
                injector.stats().reboots == 1u);
    s.run();
    EXPECT_EQ(injector.stats().crashes, 1u);
    EXPECT_EQ(injector.stats().reboots, 1u);
    EXPECT_FALSE(s.world().node(2).radio().is_off());
    // The anchor beacons again after its cold restart.
    EXPECT_GT(s.agent(2).stats().beacons_sent, sent_during);
}

TEST(FaultInjector, OutageIsDeafAndRecovers) {
    core::ScenarioConfig c = small_config();
    c.duration = Duration::seconds(240.0);
    core::Scenario s(c);
    // Node 8 is blind: during the outage it hears nothing, afterwards it
    // resumes collecting beacons.
    FaultInjector injector(s, FaultPlan::parse("outage@40+60:node=8"));
    injector.arm();
    s.run_until(TimePoint::from_seconds(50.0));
    EXPECT_TRUE(s.world().node(8).radio().in_outage());
    const auto heard_during = s.agent(8).stats().beacons_received;
    s.run_until(TimePoint::from_seconds(99.0));
    EXPECT_EQ(s.agent(8).stats().beacons_received, heard_during);
    s.run();
    EXPECT_FALSE(s.world().node(8).radio().in_outage());
    EXPECT_GT(s.agent(8).stats().beacons_received, heard_during);
    EXPECT_EQ(injector.stats().outages, 1u);
}

TEST(FaultInjector, FullLossBurstBlanksTheMedium) {
    core::ScenarioConfig c = small_config();
    core::Scenario s(c);
    FaultInjector injector(s, FaultPlan::parse("loss@30+60:p=1"));
    injector.arm();
    s.run_until(TimePoint::from_seconds(35.0));
    const auto received_in_burst = s.result().agent_totals.beacons_received;
    s.run_until(TimePoint::from_seconds(85.0));
    // p = 1 drops every reception attempt medium-wide.
    EXPECT_EQ(s.result().agent_totals.beacons_received, received_in_burst);
    EXPECT_GT(s.world().medium().stats().fault_rx_dropped, 0u);
    s.run();
    EXPECT_GT(s.result().agent_totals.beacons_received, received_in_burst);
}

TEST(FaultInjector, ClockDriftShiftsAgentClock) {
    core::Scenario s(small_config());
    FaultInjector injector(s, FaultPlan::parse("drift@10:node=9,s=0.35"));
    injector.arm();
    s.run_until(TimePoint::from_seconds(5.0));
    const double before = s.agent(9).clock_offset_seconds();
    s.run_until(TimePoint::from_seconds(11.0));
    EXPECT_NEAR(s.agent(9).clock_offset_seconds() - before, 0.35, 1e-12);
    EXPECT_EQ(injector.stats().clock_drifts, 1u);
}

TEST(FaultInjector, BatteryBudgetKillsRadio) {
    core::Scenario s(small_config());
    // A few joules go in minutes of duty-cycled operation; 100 mJ dies fast.
    FaultInjector injector(s, FaultPlan::parse("battery@0:node=3,budget_mj=100"));
    injector.arm();
    s.run();
    EXPECT_EQ(injector.stats().battery_deaths, 1u);
    EXPECT_TRUE(s.world().node(3).radio().is_off());
    ASSERT_EQ(injector.realized_intervals().size(), 1u);
    EXPECT_EQ(injector.realized_intervals()[0].second, TimePoint::max());
}

TEST(Odometry, NoiseScaleValidation) {
    mobility::OdometryEstimator odo({}, sim::RandomStream(1));
    EXPECT_DOUBLE_EQ(odo.noise_scale(), 1.0);
    odo.set_noise_scale(4.0);
    EXPECT_DOUBLE_EQ(odo.noise_scale(), 4.0);
    EXPECT_THROW(odo.set_noise_scale(0.0), std::invalid_argument);
    EXPECT_THROW(odo.set_noise_scale(-1.0), std::invalid_argument);
}

TEST(FaultInjector, OdometryDegradeAppliesAndReverts) {
    core::ScenarioConfig c = small_config();
    core::Scenario s(c);
    FaultInjector injector(s, FaultPlan::parse("odo@20+30:nodes=6-7,scale=5"));
    injector.arm();
    s.run_until(TimePoint::from_seconds(60.0));
    EXPECT_EQ(injector.stats().odometry_degrades, 2u);
    s.run();  // revert events at t=50 already fired; run survives to the end
}

// ----------------------------------------------- resilience report + engine

TEST(Resilience, ReportSplitsPhasesAndDegradesDuringFault) {
    core::ScenarioConfig c = small_config();
    c.duration = Duration::seconds(300.0);
    core::Scenario s(c);
    FaultPlan plan = FaultPlan::parse("outage@100+80:nodes=6-11");
    plan.avail_threshold_m = 10.0;
    FaultInjector injector(s, plan);
    injector.arm();
    s.run();
    const ResilienceReport rep = injector.report(s.result());
    EXPECT_EQ(rep.samples_total,
              rep.samples_before + rep.samples_during + rep.samples_after);
    EXPECT_GT(rep.samples_before, 0u);
    EXPECT_GT(rep.samples_during, 0u);
    EXPECT_GT(rep.samples_after, 0u);
    // Every blind robot was deaf for 80 s: availability during the outage
    // cannot beat the fault-free phase before it.
    EXPECT_LE(rep.avail_during, rep.avail_before);
    ASSERT_TRUE(rep.p50_during_m.has_value());
    ASSERT_TRUE(rep.p90_during_m.has_value());
    EXPECT_LE(*rep.p50_during_m, *rep.p90_during_m);
}

TEST(Resilience, ReplicationEngineIsThreadCountInvariant) {
    core::ScenarioConfig c = small_config();
    const FaultPlan plan = FaultPlan::parse(
        "crash@60:node=5;reboot@40+40:node=4;outage@80+30:nodes=8-9;"
        "loss@100+20:p=0.5,db=3;drift@20:node=10,s=0.2;"
        "odo@30+60:node=11,scale=3;battery@0:node=3,budget_mj=150");

    exp::ReplicationOptions serial;
    serial.n_reps = 4;
    serial.n_threads = 1;
    exp::ReplicationOptions parallel = serial;
    parallel.n_threads = 4;

    const exp::ReplicationSet a = exp::run_replications(c, plan, serial);
    const exp::ReplicationSet b = exp::run_replications(c, plan, parallel);

    EXPECT_TRUE(a.has_resilience);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].seed, b.records[i].seed);
        EXPECT_EQ(a.records[i].avg_error_m, b.records[i].avg_error_m);
        EXPECT_EQ(a.records[i].steady_error_m, b.records[i].steady_error_m);
        EXPECT_EQ(a.records[i].counters, b.records[i].counters);
        ASSERT_TRUE(a.records[i].resilience.has_value());
        ASSERT_TRUE(b.records[i].resilience.has_value());
        EXPECT_EQ(a.records[i].resilience->availability,
                  b.records[i].resilience->availability);
        EXPECT_EQ(a.records[i].resilience->samples_during,
                  b.records[i].resilience->samples_during);
        EXPECT_EQ(a.records[i].resilience->reacquired,
                  b.records[i].resilience->reacquired);
    }
    EXPECT_EQ(a.counter_totals, b.counter_totals);
    EXPECT_EQ(a.availability.mean(), b.availability.mean());
    EXPECT_EQ(a.avail_during.mean(), b.avail_during.mean());
    EXPECT_EQ(a.reacquire_s.mean(), b.reacquire_s.mean());
    // The multi-kind plan actually exercised the machinery.
    EXPECT_GT(a.counter_totals.at("fault.crashes"), 0u);
    EXPECT_GT(a.counter_totals.at("fault.reboots"), 0u);
    EXPECT_GT(a.counter_totals.at("fault.battery_deaths"), 0u);
}

TEST(Resilience, EmptyPlanIsZeroOverhead) {
    // An armed-but-empty injector must leave the run bit-identical to a
    // plain one: same error series, same counter snapshot (no fault.* keys).
    const core::ScenarioConfig c = small_config();
    const core::ScenarioResult plain = core::run_scenario(c);

    core::Scenario s(c);
    FaultInjector injector(s, FaultPlan{});
    injector.arm();
    s.run();
    const core::ScenarioResult faulted = s.result();

    EXPECT_EQ(plain.counters, faulted.counters);
    ASSERT_EQ(plain.avg_error.samples().size(), faulted.avg_error.samples().size());
    for (std::size_t i = 0; i < plain.avg_error.samples().size(); ++i) {
        EXPECT_EQ(plain.avg_error.samples()[i].value,
                  faulted.avg_error.samples()[i].value);
    }
    for (const auto& [name, value] : plain.counters) {
        EXPECT_NE(name.rfind("fault.", 0), 0u) << name;
    }
}

TEST(Resilience, AvailabilityDegradesWithCrashedAnchors) {
    core::ScenarioConfig c = small_config();
    c.seed = 5;
    c.num_robots = 16;
    c.num_anchors = 8;
    c.duration = Duration::seconds(600.0);

    exp::ReplicationOptions opt;
    opt.n_reps = 2;
    const TimePoint strike = TimePoint::from_seconds(150.0);

    std::vector<core::ScenarioConfig> configs;
    std::vector<FaultPlan> plans;
    for (const int k : {1, 6}) {
        configs.push_back(c);
        plans.push_back(anchor_crash_plan(c.num_anchors, k, strike));
    }
    const std::vector<exp::ReplicationSet> sets =
        exp::run_sweep(configs, plans, opt);
    ASSERT_EQ(sets.size(), 2u);
    ASSERT_TRUE(sets[0].has_resilience);
    ASSERT_TRUE(sets[1].has_resilience);
    // Losing six of eight anchors is strictly worse than losing one.
    EXPECT_LT(sets[1].availability.mean(), sets[0].availability.mean());
    EXPECT_GT(sets[1].steady_error.mean(), sets[0].steady_error.mean());
}

}  // namespace
}  // namespace cocoa::fault
