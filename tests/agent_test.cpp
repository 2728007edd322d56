#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/agent.hpp"
#include "core/scenario.hpp"

namespace cocoa::core {
namespace {

using cocoa::sim::Duration;
using cocoa::sim::TimePoint;

/// Small deployments driven through the Scenario builder — the natural way
/// to wire agents — with direct access to individual agents.
ScenarioConfig small_config() {
    ScenarioConfig c;
    c.seed = 11;
    c.num_robots = 10;
    c.num_anchors = 5;
    c.duration = Duration::seconds(120.0);
    c.period = Duration::seconds(20.0);
    c.window = Duration::seconds(3.0);
    return c;
}

TEST(Agent, AnchorsSendBeaconsBlindRobotsDoNot) {
    Scenario s(small_config());
    s.run();
    for (std::size_t i = 0; i < s.agent_count(); ++i) {
        const auto id = static_cast<net::NodeId>(i);
        const auto& stats = s.agent(id).stats();
        if (s.is_anchor(id)) {
            EXPECT_GT(stats.beacons_sent, 0u) << "anchor " << i;
            EXPECT_EQ(stats.fixes, 0u) << "anchor " << i;
        } else {
            EXPECT_EQ(stats.beacons_sent, 0u) << "blind " << i;
            EXPECT_GT(stats.beacons_received, 0u) << "blind " << i;
        }
    }
}

TEST(Agent, AnchorSendsKBeaconsPerWindow) {
    ScenarioConfig c = small_config();
    c.beacons_per_window = 3;  // the paper's k
    Scenario s(c);
    s.run();
    // 120 s / 20 s = 6 periods, 3 beacons each.
    EXPECT_EQ(s.agent(0).stats().beacons_sent, 18u);
}

TEST(Agent, BlindRobotsFixEveryWindowAtPaperDensity) {
    Scenario s(small_config());
    s.run();
    for (std::size_t i = 5; i < 10; ++i) {
        const auto& stats = s.agent(static_cast<net::NodeId>(i)).stats();
        EXPECT_GT(stats.fixes, 3u) << "blind " << i;
        EXPECT_TRUE(s.agent(static_cast<net::NodeId>(i)).ever_fixed());
    }
}

TEST(Agent, EstimateStartsAtAreaCenterWithoutInitialPose) {
    ScenarioConfig c = small_config();
    Scenario s(c);
    // Before anything runs, blind estimates sit at the uniform-prior mean.
    const auto center = geom::Rect::square(c.area_side_m).center();
    EXPECT_EQ(s.agent(7).estimate(), center);
}

TEST(Agent, OdometryOnlyUsesTruePoseAtStart) {
    ScenarioConfig c = small_config();
    c.estimator = est::Backend::Odometry;
    Scenario s(c);
    s.run_until(TimePoint::from_seconds(1.0));
    // At t=1 the estimate is still within noise of the truth.
    EXPECT_LT(s.agent(3).error(), 2.0);
}

TEST(Agent, OdometryOnlySendsNothing) {
    ScenarioConfig c = small_config();
    c.estimator = est::Backend::Odometry;
    Scenario s(c);
    s.run();
    const auto r = s.result();
    EXPECT_EQ(r.agent_totals.beacons_sent, 0u);
    EXPECT_EQ(r.medium_stats.frames_sent, 0u);
    EXPECT_EQ(r.agent_totals.fixes, 0u);
}

TEST(Agent, RfOnlyEstimateConstantBetweenWindows) {
    ScenarioConfig c = small_config();
    c.estimator = est::Backend::Rf;
    c.sync = SyncMode::PerfectClock;
    Scenario s(c);
    // Run past the first window, sample the estimate, run to mid-period,
    // sample again: it must not have moved (held fix).
    s.run_until(TimePoint::from_seconds(5.0));
    const auto est1 = s.agent(7).estimate();
    s.run_until(TimePoint::from_seconds(15.0));
    const auto est2 = s.agent(7).estimate();
    EXPECT_EQ(est1, est2);
}

TEST(Agent, CombinedEstimateMovesBetweenWindows) {
    ScenarioConfig c = small_config();
    c.estimator = est::Backend::Grid;
    c.sync = SyncMode::PerfectClock;
    Scenario s(c);
    s.run_until(TimePoint::from_seconds(5.0));
    const auto est1 = s.agent(7).estimate();
    s.run_until(TimePoint::from_seconds(15.0));
    const auto est2 = s.agent(7).estimate();
    EXPECT_NE(est1, est2);  // odometry keeps integrating
}

TEST(Agent, SleepCoordinationPutsRadiosToSleepBetweenWindows) {
    ScenarioConfig c = small_config();
    c.sync = SyncMode::PerfectClock;
    Scenario s(c);
    // Mid-period (t=10 of a 20 s period, window 3 s): radios asleep.
    s.run_until(TimePoint::from_seconds(10.0));
    int asleep = 0;
    for (const auto& node : s.world().nodes()) {
        if (!node->radio().awake()) ++asleep;
    }
    EXPECT_EQ(asleep, 10);
    // Inside the next window: radios awake.
    s.run_until(TimePoint::from_seconds(21.0));
    int awake = 0;
    for (const auto& node : s.world().nodes()) {
        if (node->radio().awake()) ++awake;
    }
    EXPECT_EQ(awake, 10);
}

TEST(Agent, NoSleepWithoutCoordination) {
    ScenarioConfig c = small_config();
    c.sleep_coordination = false;
    Scenario s(c);
    s.run_until(TimePoint::from_seconds(10.0));
    for (const auto& node : s.world().nodes()) {
        EXPECT_TRUE(node->radio().awake());
    }
}

TEST(Agent, MrmmSyncDeliversSyncMessages) {
    ScenarioConfig c = small_config();
    c.sync = SyncMode::Mrmm;
    Scenario s(c);
    s.run();
    const auto r = s.result();
    EXPECT_GT(r.agent_totals.syncs_received, 0u);
    EXPECT_GT(r.multicast_stats.data_sent, 0u);
    EXPECT_GT(r.multicast_stats.queries_sent, 0u);
}

TEST(Agent, PerfectClockHasNoControlTraffic) {
    ScenarioConfig c = small_config();
    c.sync = SyncMode::PerfectClock;
    Scenario s(c);
    s.run();
    const auto r = s.result();
    EXPECT_EQ(r.agent_totals.syncs_received, 0u);
    EXPECT_EQ(r.multicast_stats.data_sent, 0u);
    // Only beacons on the air.
    EXPECT_EQ(r.medium_stats.frames_sent, r.agent_totals.beacons_sent);
}

TEST(Agent, FixErrorSmallRightAfterWindow) {
    ScenarioConfig c = small_config();
    c.sync = SyncMode::PerfectClock;
    c.num_robots = 30;
    c.num_anchors = 15;
    Scenario s(c);
    s.run_until(TimePoint::from_seconds(4.0));  // right after window 0
    metrics::RunningStat err;
    for (std::size_t i = 15; i < 30; ++i) {
        s.agent(static_cast<net::NodeId>(i)).tick();
        err.add(s.agent(static_cast<net::NodeId>(i)).error());
    }
    EXPECT_LT(err.mean(), 12.0);
}

TEST(Agent, HeadingCorrectionConfigurable) {
    // Smoke-check the ablation knob wires through: disabling heading
    // correction must not crash and typically degrades accuracy.
    ScenarioConfig c = small_config();
    c.heading_correction_at_fix = false;
    const auto r = run_scenario(c);
    EXPECT_GT(r.agent_totals.fixes, 0u);
}

TEST(Agent, InvalidConfigRejected) {
    ScenarioConfig c = small_config();
    c.window = c.period;  // window must be < period
    EXPECT_THROW(Scenario{c}, std::invalid_argument);
    c = small_config();
    c.beacons_per_window = 0;
    EXPECT_THROW(Scenario{c}, std::invalid_argument);
    c = small_config();
    c.num_anchors = 0;  // RF estimators need anchors
    EXPECT_THROW(Scenario{c}, std::invalid_argument);
    c = small_config();
    c.num_anchors = 99;
    EXPECT_THROW(Scenario{c}, std::invalid_argument);
}

TEST(Agent, RetunePropagatesThroughSync) {
    // §2.3: "a human operator [can] dynamically adjust these values by
    // notifying the Sync robot to advertise new values".
    ScenarioConfig c = small_config();
    c.sync = SyncMode::Mrmm;
    Scenario s(c);
    s.run_until(TimePoint::from_seconds(30.0));
    s.agent(0).retune(Duration::seconds(40.0), Duration::seconds(4.0));
    s.run_until(TimePoint::from_seconds(180.0));
    // Every robot that heard a SYNC since then runs the new time-line.
    int adopted = 0;
    for (std::size_t i = 0; i < s.agent_count(); ++i) {
        if (s.agent(static_cast<net::NodeId>(i)).period() == Duration::seconds(40.0)) {
            ++adopted;
        }
    }
    EXPECT_GE(adopted, 8);  // at most a couple of stragglers
    // And localization keeps working afterwards.
    metrics::RunningStat err;
    for (std::size_t i = 5; i < 10; ++i) {
        err.add(s.agent(static_cast<net::NodeId>(i)).error());
    }
    EXPECT_LT(err.mean(), 30.0);
}

TEST(Agent, RetuneValidation) {
    Scenario s(small_config());
    EXPECT_THROW(s.agent(0).retune(Duration::seconds(10.0), Duration::seconds(10.0)),
                 std::invalid_argument);
    EXPECT_THROW(s.agent(0).retune(Duration::seconds(10.0), Duration::zero()),
                 std::invalid_argument);
}

TEST(Agent, AnchorEstimateIsDevicePosition) {
    Scenario s(small_config());
    s.run_until(TimePoint::from_seconds(30.0));
    // Anchors "know" their position through the localization device.
    EXPECT_DOUBLE_EQ(s.agent(0).error(), 0.0);
}

TEST(Agent, BeaconsCarryAnchorPositionWithSlamNoise) {
    ScenarioConfig c = small_config();
    c.sync = SyncMode::PerfectClock;
    c.num_robots = 2;
    c.num_anchors = 1;
    c.anchor_position_sigma_m = 0.5;
    Scenario s(c);
    // Intercept beacons at the blind node.
    auto& blind = s.world().node(1);
    std::vector<geom::Vec2> reported;
    std::vector<geom::Vec2> truth;
    auto& anchor_mob = s.world().node(0).mobility();
    blind.radio().set_receive_handler(
        [&](const net::Packet& p, const net::RxInfo& info) {
            if (const auto* b = std::get_if<net::BeaconPayload>(&p.payload)) {
                reported.push_back(b->anchor_position);
                truth.push_back(anchor_mob.position());
            }
            blind.host().dispatch(p, info);
        });
    s.run_until(TimePoint::from_seconds(25.0));
    ASSERT_FALSE(reported.empty());
    for (std::size_t i = 0; i < reported.size(); ++i) {
        const double err = geom::distance(reported[i], truth[i]);
        EXPECT_GT(err, 0.0);
        EXPECT_LT(err, 5.0);  // SLAM-grade, not exact
    }
}

}  // namespace
}  // namespace cocoa::core
