#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "est/estimator.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "mobility/odometry.hpp"
#include "phy/channel.hpp"
#include "phy/pdf_table.hpp"

// ------------------------------------------------------------- alloc counter
// Program-wide operator new override: LinCvx's steady-state fix loop is
// specified allocation-free (the microcontroller-budget claim), and the test
// pins it by counting heap allocations across the measured region. Counting
// is passive, so every other test in this binary runs unchanged.

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
    ++g_heap_allocations;
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cocoa::est {
namespace {

using cocoa::sim::Duration;
using cocoa::sim::TimePoint;

core::ScenarioConfig small_config() {
    core::ScenarioConfig c;
    c.seed = 21;
    c.num_robots = 12;
    c.num_anchors = 6;
    c.duration = Duration::seconds(180.0);
    c.period = Duration::seconds(25.0);
    return c;
}

/// Standalone backend wired the way the agent wires it (same idiom as
/// exp::measure_fix_cpu_ns): the scenario's tuning and grid settings, PDF
/// table + agent-owned odometry.
struct Standalone {
    explicit Standalone(Backend backend, const core::ScenarioConfig& base)
        : backend(backend), tuning(base.tuning) {
        phy::Channel channel(base.channel);
        table = std::make_shared<const phy::PdfTable>(phy::PdfTable::calibrate(
            channel, base.calibration, sim::RandomStream(base.seed)));
        grid.area = geom::Rect::square(base.area_side_m);
        grid.cell_m = base.cell_m;
        grid.floor_fraction = base.floor_fraction;
        odometry = std::make_unique<mobility::OdometryEstimator>(
            base.odometry, sim::RandomStream(base.seed));
        odometry->reset(grid.area.center(), 0.0);
    }
    std::unique_ptr<Estimator> make() {
        return make_estimator(backend, tuning, grid, table, odometry.get());
    }

    Backend backend;
    Config tuning;
    core::GridConfig grid;
    std::shared_ptr<const phy::PdfTable> table;
    std::unique_ptr<mobility::OdometryEstimator> odometry;
};

/// Three beacons from anchors on a ring around `around`, RSSI from the
/// usable middle of the table — every backend accepts them.
std::vector<core::BeaconObservation> ring_beacons(const phy::PdfTable& table,
                                                  const geom::Vec2& around) {
    const int mid = (table.min_rssi_dbm() + table.max_rssi_dbm()) / 2;
    return {
        {around + geom::Vec2{30.0, 0.0}, static_cast<double>(mid)},
        {around + geom::Vec2{-15.0, 26.0}, static_cast<double>(mid - 2)},
        {around + geom::Vec2{-15.0, -26.0}, static_cast<double>(mid + 2)},
    };
}

// ----------------------------------------------------------------- plumbing

TEST(EstBackend, NameRoundTrip) {
    for (const Backend b : {Backend::Grid, Backend::Ekf, Backend::LinCvx, Backend::Rf,
                            Backend::Odometry}) {
        const auto parsed = parse_backend(to_string(b));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, b);
    }
    EXPECT_FALSE(parse_backend("kalman").has_value());
    EXPECT_FALSE(parse_backend("").has_value());
}

// ------------------------------------------------------ tuning validation

/// The message Config::validate() throws for `tuning` ("" if it passes).
std::string validate_error(const Config& tuning) {
    try {
        tuning.validate();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

/// Expects every value in `bad` to be rejected with a message naming
/// `field`, and every value in `good` to pass.
template <typename T>
void expect_field(T Config::*field, const char* name, std::initializer_list<T> bad,
                  std::initializer_list<T> good) {
    for (const T value : bad) {
        Config tuning;
        tuning.*field = value;
        const std::string what = validate_error(tuning);
        EXPECT_NE(what.find(name), std::string::npos)
            << name << " = " << value << " passed or was misreported: '" << what
            << "'";
    }
    for (const T value : good) {
        Config tuning;
        tuning.*field = value;
        EXPECT_EQ(validate_error(tuning), "") << name << " = " << value;
    }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EstConfig, DefaultsValidate) { EXPECT_EQ(validate_error(Config{}), ""); }

TEST(EstConfig, MinBeaconsForFixAtLeastOne) {
    expect_field(&Config::min_beacons_for_fix, "min_beacons_for_fix", {0, -3}, {1, 5});
}

TEST(EstConfig, LincvxMinBeaconsAtLeastOne) {
    expect_field(&Config::lincvx_min_beacons, "lincvx_min_beacons", {0, -1}, {1, 4});
}

/// -infinity (the default) admits every beacon; only NaN is meaningless.
TEST(EstConfig, RssiCutoffNotNaN) {
    expect_field(&Config::beacon_rssi_cutoff_dbm, "beacon_rssi_cutoff_dbm", {kNaN},
                 {-kInf, -80.0, kInf});
}

TEST(EstConfig, QDisplacementFracFiniteNonNegative) {
    expect_field(&Config::ekf_q_displacement_frac, "ekf_q_displacement_frac",
                 {-0.1, kNaN, kInf}, {0.0, 0.3});
}

TEST(EstConfig, QFloorVarFiniteNonNegative) {
    expect_field(&Config::ekf_q_floor_var_per_s, "ekf_q_floor_var_per_s",
                 {-1.0, kNaN, kInf}, {0.0, 2.0});
}

TEST(EstConfig, RejectInflationVarFiniteNonNegative) {
    expect_field(&Config::ekf_reject_inflation_var, "ekf_reject_inflation_var",
                 {-2.0, kNaN, kInf}, {0.0, 5.0});
}

TEST(EstConfig, MissedWindowVarFiniteNonNegative) {
    expect_field(&Config::ekf_missed_window_var, "ekf_missed_window_var",
                 {-4.0, kNaN, kInf}, {0.0, 9.0});
}

/// A NaN gate would switch the innovation gate off without a word.
TEST(EstConfig, GateSigmasFinitePositive) {
    expect_field(&Config::ekf_gate_sigmas, "ekf_gate_sigmas", {0.0, -4.0, kNaN, kInf},
                 {0.5, 50.0});
}

TEST(EstConfig, MinRangeSigmaFinitePositive) {
    expect_field(&Config::ekf_min_range_sigma_m, "ekf_min_range_sigma_m",
                 {0.0, -2.0, kNaN, kInf}, {0.1, 2.0});
}

// ------------------------------------------------- grid-backend invariants

/// The grid backend behind the interface keeps the repo's core invariant:
/// counters and position traces are byte-identical at any grid-thread count.
TEST(EstGrid, ThreadCountInvariantCountersAndTrace) {
    auto run_at = [](int threads) {
        core::ScenarioConfig c = small_config();
        c.grid_update_threads = threads;
        core::Scenario s(c);
        s.enable_position_trace(Duration::seconds(5.0));
        s.run();
        return std::make_pair(s.result().counters, s.position_trace());
    };
    const auto [counters0, trace0] = run_at(0);
    for (const int threads : {1, 4}) {
        const auto [counters, trace] = run_at(threads);
        EXPECT_EQ(counters, counters0) << "grid-threads " << threads;
        ASSERT_EQ(trace.size(), trace0.size()) << "grid-threads " << threads;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(trace[i].estimate, trace0[i].estimate)
                << "grid-threads " << threads << " row " << i;
        }
    }
}

/// Regression for the reboot path: FaultInjector revival routes through
/// Estimator::reset(), so the belief collapses to the area centre exactly as
/// the pre-interface agent's did — and the whole faulted run stays
/// byte-identical across grid-thread counts.
TEST(EstGrid, RebootRoutesThroughEstimatorReset) {
    auto run_at = [](int threads) {
        core::ScenarioConfig c = small_config();
        c.grid_update_threads = threads;
        core::Scenario s(c);
        fault::FaultInjector injector(s,
                                      fault::FaultPlan::parse("reboot@60+30:node=9"));
        injector.arm();
        s.enable_position_trace(Duration::seconds(5.0));

        // Just after the revival at t=90 the estimator has been reset:
        // belief back at the uniform-prior centre, no fix on record yet.
        s.run_until(TimePoint::from_seconds(95.0));
        EXPECT_TRUE(s.agent(9).ever_fixed() == false)
            << "reboot should clear ever_fixed";
        EXPECT_EQ(s.agent(9).estimate(),
                  geom::Rect::square(s.config().area_side_m).center());

        s.run();
        EXPECT_TRUE(s.agent(9).ever_fixed()) << "robot should reacquire";
        return std::make_pair(s.result().counters, s.position_trace());
    };
    const auto [counters0, trace0] = run_at(0);
    const auto [counters4, trace4] = run_at(4);
    EXPECT_EQ(counters4, counters0);
    ASSERT_EQ(trace4.size(), trace0.size());
    for (std::size_t i = 0; i < trace4.size(); ++i) {
        EXPECT_EQ(trace4[i].estimate, trace0[i].estimate) << "row " << i;
    }
}

// ------------------------------------------------------------------ EKF-CL

/// Covariance inflation under loss: across a burst of beacon-less windows
/// the spread grows monotonically (the filter loses confidence instead of
/// coasting), then reconverges once beacons return.
TEST(EstEkf, SpreadInflatesAcrossLossBurstAndReconverges) {
    // Two identical filters fed identical windows; `burst` additionally
    // loses 8 windows of beacons. Its spread must inflate monotonically
    // through the burst, then reconverge to the unfaulted control's.
    Standalone wiring(Backend::Ekf, small_config());
    wiring.tuning.ekf_gate_sigmas = 50.0;  // keep the gate out of this test
    const std::unique_ptr<Estimator> burst = wiring.make();
    const std::unique_ptr<Estimator> control = wiring.make();
    ASSERT_FALSE(burst->collects_window_beacons());
    ASSERT_TRUE(burst->integrates_odometry());

    const geom::Vec2 start{100.0, 100.0};
    burst->reset(start, true);
    control->reset(start, true);
    const auto window = [&](Estimator& ekf, bool with_beacons) {
        ekf.predict({0.5, -0.25}, 1.0);
        if (with_beacons) {
            for (const auto& b : ring_beacons(*wiring.table, start)) {
                ekf.observe_beacon(b);
            }
        }
        return ekf.end_window();
    };

    for (int w = 0; w < 30; ++w) {
        const WindowSummary summary = window(*burst, true);
        EXPECT_TRUE(summary.fixed);
        window(*control, true);
    }
    EXPECT_DOUBLE_EQ(burst->spread_m(), control->spread_m());

    // Loss burst: every missed window inflates the spread.
    double previous = burst->spread_m();
    for (int w = 0; w < 8; ++w) {
        const WindowSummary summary = window(*burst, false);
        EXPECT_FALSE(summary.fixed);
        EXPECT_GT(burst->spread_m(), previous) << "missed window " << w;
        previous = burst->spread_m();
        window(*control, true);
    }
    EXPECT_GT(burst->spread_m(), control->spread_m());

    // Beacons return: confidence is rebuilt back toward the control's
    // (recovery is gradual — each window fuses only three ranges against
    // the inflated prior).
    for (int w = 0; w < 100; ++w) {
        window(*burst, true);
        window(*control, true);
    }
    EXPECT_LT(burst->spread_m(), previous);
    EXPECT_LT(burst->spread_m(), 1.1 * control->spread_m());
}

// ------------------------------------------------------------------ LinCvx

/// The opportunistic convex-combination fix runs allocation-free in steady
/// state: predict + compute_fix + apply_fix touch no heap, which is what
/// makes its per-fix cost microcontroller-sized.
TEST(EstLinCvx, SteadyStateFixIsAllocationFree) {
    Standalone wiring(Backend::LinCvx, small_config());
    const std::unique_ptr<Estimator> lincvx = wiring.make();
    ASSERT_TRUE(lincvx->collects_window_beacons());
    ASSERT_FALSE(lincvx->pool_safe_fix());

    const geom::Vec2 start{100.0, 100.0};
    lincvx->reset(start, true);
    const std::vector<core::BeaconObservation> beacons =
        ring_beacons(*wiring.table, start);

    // Warm up, then pin: zero heap allocations across 100 windows.
    for (int w = 0; w < 3; ++w) {
        lincvx->predict({0.5, -0.25}, 1.0);
        lincvx->apply_fix(lincvx->compute_fix(beacons), 0.0);
    }
    const std::uint64_t allocations_before = g_heap_allocations.load();
    for (int w = 0; w < 100; ++w) {
        lincvx->predict({0.5, -0.25}, 1.0);
        lincvx->apply_fix(lincvx->compute_fix(beacons), 0.0);
    }
    EXPECT_EQ(g_heap_allocations.load(), allocations_before);
    EXPECT_TRUE(lincvx->ever_fixed());
    EXPECT_GT(lincvx->spread_m(), 0.0);
}

// -------------------------------------------------------- accuracy ordering

/// Fig. 7 scenario at 0% loss: the paper's grid is the most accurate, the
/// EKF next, the opportunistic combination last — the accuracy end of the
/// accuracy/CPU trade-off the ext_backends bench charts.
TEST(EstAccuracy, GridBeatsEkfBeatsLinCvxOnFig7Scenario) {
    auto steady_error = [](Backend backend) {
        core::ScenarioConfig c;  // paper defaults: 50 robots, 25 anchors
        c.seed = 7;
        c.duration = Duration::seconds(600.0);
        c.estimator = backend;
        const core::ScenarioResult r = core::run_scenario(c);
        return r.avg_error.mean_in(TimePoint::from_seconds(150.0),
                                   TimePoint::from_seconds(600.0));
    };
    const double grid = steady_error(Backend::Grid);
    const double ekf = steady_error(Backend::Ekf);
    const double lincvx = steady_error(Backend::LinCvx);
    EXPECT_LT(grid, ekf);
    EXPECT_LT(ekf, lincvx);
    EXPECT_LT(grid, 10.0);  // the reproduction's fig7 steady-state ballpark
}

}  // namespace
}  // namespace cocoa::est
