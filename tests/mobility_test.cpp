#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "mobility/odometry.hpp"
#include "mobility/waypoint.hpp"
#include "sim/random.hpp"

namespace cocoa::mobility {
namespace {

using cocoa::geom::Rect;
using cocoa::geom::Vec2;
using cocoa::sim::Duration;
using cocoa::sim::RandomStream;
using cocoa::sim::RngManager;
using cocoa::sim::TimePoint;

WaypointConfig paper_config(double vmax = 2.0) {
    WaypointConfig c;
    c.area = Rect::square(200.0);
    c.min_speed = 0.1;
    c.max_speed = vmax;
    return c;
}

TEST(Waypoint, StartsAtGivenPosition) {
    WaypointMobility m(paper_config(), RandomStream(1), Vec2{50.0, 60.0});
    EXPECT_EQ(m.position(), Vec2(50.0, 60.0));
}

TEST(Waypoint, RandomStartInsideArea) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        WaypointMobility m(paper_config(), RandomStream(seed));
        EXPECT_TRUE(paper_config().area.contains(m.position()));
    }
}

TEST(Waypoint, StartOutsideAreaThrows) {
    EXPECT_THROW(WaypointMobility(paper_config(), RandomStream(1), Vec2{500.0, 0.0}),
                 std::invalid_argument);
}

TEST(Waypoint, BadConfigThrows) {
    WaypointConfig c = paper_config();
    c.min_speed = 0.0;
    EXPECT_THROW(WaypointMobility(c, RandomStream(1)), std::invalid_argument);
    c = paper_config();
    c.max_speed = 0.05;  // < min_speed
    EXPECT_THROW(WaypointMobility(c, RandomStream(1)), std::invalid_argument);
    c = paper_config();
    c.min_pause = Duration::seconds(5.0);
    c.max_pause = Duration::seconds(1.0);
    EXPECT_THROW(WaypointMobility(c, RandomStream(1)), std::invalid_argument);
}

TEST(Waypoint, NonFiniteSpeedThrows) {
    // A NaN speed turns every leg duration into a NaN-to-integer cast.
    WaypointConfig c = paper_config(std::nan(""));
    EXPECT_THROW(WaypointMobility(c, RandomStream(1)), std::invalid_argument);
    c = paper_config(INFINITY);
    EXPECT_THROW(WaypointMobility(c, RandomStream(1)), std::invalid_argument);
}

TEST(Waypoint, StaysInsideAreaForever) {
    WaypointMobility m(paper_config(), RandomStream(7));
    for (int t = 1; t <= 2000; t += 3) {
        m.advance_to(TimePoint::from_seconds(t));
        EXPECT_TRUE(paper_config().area.contains(m.position()))
            << "escaped at t=" << t << " pos=" << m.position().x << ","
            << m.position().y;
    }
}

TEST(Waypoint, SpeedWithinBounds) {
    WaypointMobility m(paper_config(0.5), RandomStream(3));
    for (int t = 1; t <= 500; ++t) {
        m.advance_to(TimePoint::from_seconds(t));
        if (!m.resting()) {
            EXPECT_GE(m.speed(), 0.1);
            EXPECT_LE(m.speed(), 0.5);
        }
    }
}

TEST(Waypoint, IncrementsIntegrateToTruePosition) {
    // Dead-reckoning the *noise-free* increments must land exactly on the
    // true position: the increments are a complete description of motion.
    WaypointMobility m(paper_config(), RandomStream(11), Vec2{100.0, 100.0});
    Vec2 pos = m.position();
    double heading = m.heading();
    for (int t = 1; t <= 300; ++t) {
        for (const MotionIncrement& inc : m.advance_to(TimePoint::from_seconds(t))) {
            heading += inc.heading_change_rad;
            pos += Vec2::from_heading(heading) * inc.forward_m;
        }
        EXPECT_NEAR(pos.x, m.position().x, 1e-6);
        EXPECT_NEAR(pos.y, m.position().y, 1e-6);
    }
}

TEST(Waypoint, IncrementDurationsSumToElapsed) {
    WaypointMobility m(paper_config(), RandomStream(5));
    Duration total = Duration::zero();
    for (const MotionIncrement& inc : m.advance_to(TimePoint::from_seconds(123.0))) {
        total += inc.dt;
    }
    EXPECT_EQ(total, Duration::seconds(123.0));
}

TEST(Waypoint, TimeBackwardsThrows) {
    WaypointMobility m(paper_config(), RandomStream(1));
    m.advance_to(TimePoint::from_seconds(10.0));
    EXPECT_THROW(m.advance_to(TimePoint::from_seconds(9.0)), std::logic_error);
}

TEST(Waypoint, AdvanceToSameTimeYieldsNothing) {
    WaypointMobility m(paper_config(), RandomStream(1));
    m.advance_to(TimePoint::from_seconds(10.0));
    EXPECT_TRUE(m.advance_to(TimePoint::from_seconds(10.0)).empty());
}

TEST(Waypoint, VelocityMatchesHeadingAndSpeed) {
    WaypointMobility m(paper_config(), RandomStream(9));
    m.advance_to(TimePoint::from_seconds(5.0));
    if (!m.resting()) {
        const Vec2 v = m.velocity();
        EXPECT_NEAR(v.norm(), m.speed(), 1e-12);
        EXPECT_NEAR(v.heading(), m.heading(), 1e-12);
    }
}

TEST(Waypoint, PausesWhenConfigured) {
    WaypointConfig c = paper_config();
    c.min_pause = Duration::seconds(5.0);
    c.max_pause = Duration::seconds(10.0);
    WaypointMobility m(c, RandomStream(2));
    bool rested = false;
    for (int t = 1; t <= 2000 && !rested; ++t) {
        m.advance_to(TimePoint::from_seconds(t));
        rested = m.resting();
    }
    EXPECT_TRUE(rested);
    EXPECT_EQ(m.velocity(), Vec2());
}

TEST(Waypoint, MotionStateReportsPlanHorizon) {
    WaypointMobility m(paper_config(), RandomStream(4), Vec2{100.0, 100.0});
    const auto state = m.motion_state();
    EXPECT_EQ(state.position, m.position());
    EXPECT_GT(state.plan_horizon_s, 0.0);
    // Horizon equals remaining leg time: distance / speed.
    const double expect_s =
        cocoa::geom::distance(m.position(), m.destination()) / m.speed();
    EXPECT_NEAR(state.plan_horizon_s, expect_s, 1e-6);
}

TEST(Waypoint, DeterministicForSameStream) {
    WaypointMobility a(paper_config(), RandomStream(42));
    WaypointMobility b(paper_config(), RandomStream(42));
    a.advance_to(TimePoint::from_seconds(777.0));
    b.advance_to(TimePoint::from_seconds(777.0));
    EXPECT_EQ(a.position(), b.position());
    EXPECT_EQ(a.heading(), b.heading());
}

TEST(Waypoint, HeadingChangesOnlyAtWaypoints) {
    WaypointMobility m(paper_config(), RandomStream(13));
    int turns = 0;
    for (const MotionIncrement& inc : m.advance_to(TimePoint::from_seconds(1000.0))) {
        if (inc.heading_change_rad != 0.0) ++turns;
    }
    EXPECT_GT(turns, 0);
    // With ~100 m legs and >= 0.1 m/s speeds, turns are far sparser than one
    // per simulated second.
    EXPECT_LT(turns, 100);
}

// --- Odometry ---------------------------------------------------------------

OdometryConfig paper_odometry() {
    return OdometryConfig{};  // 0.1 m/s displacement, 10 deg angular
}

OdometryConfig noiseless() {
    OdometryConfig c;
    c.displacement_sigma = 0.0;
    c.angular_sigma_rad = 0.0;
    c.heading_drift_sigma_rad = 0.0;
    c.velocity_bias_sigma = 0.0;
    return c;
}

TEST(Odometry, NoiselessTracksExactly) {
    WaypointMobility m(paper_config(), RandomStream(21), Vec2{50.0, 50.0});
    OdometryEstimator odo(noiseless(), RandomStream(99));
    odo.reset(m.position(), m.heading());
    for (int t = 1; t <= 500; ++t) {
        odo.observe_all(m.advance_to(TimePoint::from_seconds(t)));
        EXPECT_NEAR(cocoa::geom::distance(odo.position(), m.position()), 0.0, 1e-6);
    }
}

TEST(Odometry, NegativeSigmaThrows) {
    OdometryConfig c;
    c.displacement_sigma = -1.0;
    EXPECT_THROW(OdometryEstimator(c, RandomStream(1)), std::invalid_argument);
}

TEST(Odometry, ResetReanchors) {
    OdometryEstimator odo(paper_odometry(), RandomStream(5));
    odo.reset({10.0, 20.0}, 1.0);
    EXPECT_EQ(odo.position(), Vec2(10.0, 20.0));
    EXPECT_DOUBLE_EQ(odo.heading(), 1.0);
    EXPECT_DOUBLE_EQ(odo.distance_travelled(), 0.0);
}

TEST(Odometry, ErrorAccumulatesOverTime) {
    // The core claim of §4.1 / Fig. 4: dead-reckoning error grows without
    // bound. Average over robots at two horizons and require growth.
    double early = 0.0;
    double late = 0.0;
    constexpr int kRobots = 20;
    for (int r = 0; r < kRobots; ++r) {
        const RngManager mgr(1000 + r);
        WaypointMobility m(paper_config(), mgr.stream("mob"));
        OdometryEstimator odo(paper_odometry(), mgr.stream("odo"));
        odo.reset(m.position(), m.heading());
        for (int t = 1; t <= 300; ++t) {
            odo.observe_all(m.advance_to(TimePoint::from_seconds(t)));
        }
        early += cocoa::geom::distance(odo.position(), m.position());
        for (int t = 301; t <= 1800; ++t) {
            odo.observe_all(m.advance_to(TimePoint::from_seconds(t)));
        }
        late += cocoa::geom::distance(odo.position(), m.position());
    }
    EXPECT_GT(late / kRobots, 2.0 * (early / kRobots));
    // Paper: "after half an hour, it becomes larger than 100m".
    EXPECT_GT(late / kRobots, 50.0);
}

TEST(Odometry, VelocityBiasSurvivesReset) {
    OdometryConfig c = noiseless();
    c.velocity_bias_sigma = 0.1;
    OdometryEstimator odo(c, RandomStream(3));
    const Vec2 bias = odo.velocity_bias();
    EXPECT_NE(bias, Vec2());
    odo.reset({0.0, 0.0}, 0.0);
    EXPECT_EQ(odo.velocity_bias(), bias);
    // Drive straight for 100 s; drift should be ~|bias| * 100.
    for (int i = 0; i < 100; ++i) {
        odo.observe({1.0, 0.0, Duration::seconds(1.0)});
    }
    const Vec2 expect = Vec2{100.0, 0.0} + bias * 100.0;
    EXPECT_NEAR(odo.position().x, expect.x, 1e-9);
    EXPECT_NEAR(odo.position().y, expect.y, 1e-9);
}

TEST(Odometry, TurnNoiseAppliedPerTurn) {
    OdometryConfig c = noiseless();
    c.angular_sigma_rad = cocoa::geom::deg_to_rad(10.0);
    OdometryEstimator odo(c, RandomStream(17));
    odo.reset({0.0, 0.0}, 0.0);
    // Straight driving: heading untouched.
    odo.observe({5.0, 0.0, Duration::seconds(5.0)});
    EXPECT_DOUBLE_EQ(odo.heading(), 0.0);
    // A turn: heading picks up noise around the commanded change.
    odo.observe({5.0, 1.0, Duration::seconds(5.0)});
    EXPECT_NE(odo.heading(), 1.0);
    EXPECT_NEAR(odo.heading(), 1.0, cocoa::geom::deg_to_rad(50.0));
}

TEST(Odometry, DistanceTravelledAccumulates) {
    OdometryEstimator odo(noiseless(), RandomStream(1));
    odo.reset({0.0, 0.0}, 0.0);
    odo.observe({3.0, 0.0, Duration::seconds(3.0)});
    odo.observe({4.0, 0.5, Duration::seconds(4.0)});
    EXPECT_DOUBLE_EQ(odo.distance_travelled(), 7.0);
}

TEST(Odometry, RestingIncrementsAddNoDrift) {
    OdometryConfig c = noiseless();
    c.velocity_bias_sigma = 0.5;  // big bias, but only applies while driving
    OdometryEstimator odo(c, RandomStream(2));
    odo.reset({1.0, 2.0}, 0.0);
    odo.observe({0.0, 0.0, Duration::seconds(100.0)});  // rest
    EXPECT_EQ(odo.position(), Vec2(1.0, 2.0));
}

// Property sweep: across many seeds and both paper speeds, odometry drift at
// 30 simulated minutes stays in a sane band (it must be large, but bounded by
// the area diameter scale since headings are random, not adversarial).
class OdometryDriftSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(OdometryDriftSweep, ThirtyMinuteDriftInPlausibleBand) {
    const auto [vmax, seed] = GetParam();
    const RngManager mgr(seed);
    WaypointMobility m(paper_config(vmax), mgr.stream("mob"));
    OdometryEstimator odo(paper_odometry(), mgr.stream("odo"));
    odo.reset(m.position(), m.heading());
    for (int t = 1; t <= 1800; ++t) {
        odo.observe_all(m.advance_to(TimePoint::from_seconds(t)));
    }
    const double err = cocoa::geom::distance(odo.position(), m.position());
    EXPECT_GT(err, 1.0);
    EXPECT_LT(err, 600.0);
}

INSTANTIATE_TEST_SUITE_P(
    SpeedsAndSeeds, OdometryDriftSweep,
    ::testing::Combine(::testing::Values(0.5, 2.0),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

}  // namespace
}  // namespace cocoa::mobility
