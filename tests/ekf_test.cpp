#include <gtest/gtest.h>

#include "core/ekf.hpp"
#include "core/scenario.hpp"
#include "sim/random.hpp"

namespace cocoa::core {
namespace {

using cocoa::geom::Vec2;
using cocoa::sim::Duration;
using cocoa::sim::TimePoint;

TEST(RangeEkf, ResetSetsState) {
    RangeEkf ekf;
    ekf.reset({10.0, 20.0}, 25.0);
    EXPECT_EQ(ekf.mean(), Vec2(10.0, 20.0));
    EXPECT_DOUBLE_EQ(ekf.covariance().xx, 25.0);
    EXPECT_DOUBLE_EQ(ekf.covariance().yy, 25.0);
    EXPECT_DOUBLE_EQ(ekf.covariance().xy, 0.0);
    EXPECT_NEAR(ekf.uncertainty(), std::sqrt(50.0), 1e-12);
}

TEST(RangeEkf, PredictMovesMeanAndGrowsUncertainty) {
    RangeEkf ekf;
    ekf.reset({0.0, 0.0}, 1.0);
    const double before = ekf.uncertainty();
    ekf.predict({3.0, 4.0}, 0.5);
    EXPECT_EQ(ekf.mean(), Vec2(3.0, 4.0));
    EXPECT_GT(ekf.uncertainty(), before);
}

TEST(RangeEkf, UpdateShrinksUncertainty) {
    RangeEkf ekf;
    ekf.reset({50.0, 50.0}, 100.0);
    const double before = ekf.uncertainty();
    EXPECT_TRUE(ekf.update_range({80.0, 50.0}, 30.0, 2.0));
    EXPECT_LT(ekf.uncertainty(), before);
}

TEST(RangeEkf, ConvergesToTruePositionWithThreeAnchors) {
    const Vec2 truth{70.0, 110.0};
    const Vec2 anchors[] = {{40.0, 100.0}, {90.0, 140.0}, {80.0, 80.0}};
    RangeEkf ekf;
    ekf.reset({100.0, 100.0}, 10000.0);
    sim::RandomStream rng(5);
    for (int round = 0; round < 20; ++round) {
        for (const Vec2& a : anchors) {
            const double d = geom::distance(a, truth) + rng.gaussian(0.0, 1.0);
            ekf.update_range(a, d, 1.0);
        }
    }
    EXPECT_LT(geom::distance(ekf.mean(), truth), 2.5);
    EXPECT_LT(ekf.uncertainty(), 3.0);
}

TEST(RangeEkf, GateRejectsWildMeasurement) {
    RangeEkf ekf;
    ekf.reset({50.0, 50.0}, 4.0);  // confident state
    const Vec2 before = ekf.mean();
    // An anchor 10 m away claiming a 100 m range: ~45 sigma innovation.
    EXPECT_FALSE(ekf.update_range({60.0, 50.0}, 100.0, 2.0));
    EXPECT_EQ(ekf.mean(), before);
}

TEST(RangeEkf, GateAcceptsWhenUncertain) {
    RangeEkf ekf;
    ekf.reset({50.0, 50.0}, 10000.0);  // knows nothing
    EXPECT_TRUE(ekf.update_range({60.0, 50.0}, 100.0, 2.0));
}

TEST(RangeEkf, CovarianceStaysPositive) {
    RangeEkf ekf;
    ekf.reset({100.0, 100.0}, 10000.0);
    sim::RandomStream rng(9);
    for (int i = 0; i < 500; ++i) {
        const Vec2 anchor{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
        ekf.update_range(anchor, rng.uniform(1.0, 100.0), rng.uniform(0.5, 10.0));
        ekf.predict({rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)}, 0.1);
        EXPECT_GT(ekf.covariance().xx, 0.0);
        EXPECT_GT(ekf.covariance().yy, 0.0);
        // Cauchy-Schwarz: |xy| <= sqrt(xx * yy) (up to numeric slack).
        EXPECT_LE(ekf.covariance().xy * ekf.covariance().xy,
                  ekf.covariance().xx * ekf.covariance().yy * 1.0001 + 1e-9);
    }
}

TEST(EkfMode, LocalizesInFullScenario) {
    ScenarioConfig c;
    c.seed = 13;
    c.num_robots = 20;
    c.num_anchors = 10;
    c.duration = Duration::minutes(5);
    c.period = Duration::seconds(50.0);
    c.estimator = est::Backend::Ekf;
    const auto r = run_scenario(c);
    // Continuous fusion localizes in the same regime as CoCoA.
    const double late = r.avg_error.mean_in(TimePoint::from_seconds(120.0),
                                            TimePoint::from_seconds(301.0));
    EXPECT_LT(late, 15.0);
    EXPECT_GT(r.agent_totals.beacons_received, 0u);
    // No grid fixes happen under the EKF (fusion is per beacon).
    EXPECT_EQ(r.localizer_totals.fixes, 0u);
}

TEST(EkfMode, EstimateStaysInsideArea) {
    ScenarioConfig c;
    c.seed = 14;
    c.num_robots = 12;
    c.num_anchors = 4;
    c.duration = Duration::minutes(3);
    c.period = Duration::seconds(30.0);
    c.estimator = est::Backend::Ekf;
    Scenario s(c);
    s.run();
    for (std::size_t i = 4; i < s.agent_count(); ++i) {
        EXPECT_TRUE(geom::Rect::square(c.area_side_m)
                        .contains(s.agent(static_cast<net::NodeId>(i)).estimate()));
    }
}

}  // namespace
}  // namespace cocoa::core
