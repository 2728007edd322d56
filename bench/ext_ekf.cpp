// Extension: continuous EKF fusion vs CoCoA's windowed reset-and-fix.
//
// The related work (§5) describes Kalman-filter approaches ("Collective
// Localization", Roumeliotis & Bekey) that fuse odometry with every external
// measurement instead of discarding the estimate at each window. This bench
// runs both fusion architectures on identical beacons, sweeping the beacon
// period T, to show where each wins.

#include <iostream>

#include "bench/common.hpp"

using namespace cocoa;

int main() {
    bench::print_header("Extension — EKF fusion vs windowed Bayesian fix",
                        "same beacons and coordination, different fusion");

    metrics::Table t({"T (s)", "CoCoA (m)", "CoCoA no-heading-fix (m)", "EKF (m)"});
    for (const double T : {10.0, 50.0, 100.0, 300.0}) {
        core::ScenarioConfig c = bench::paper_config();
        c.period = sim::Duration::seconds(T);
        const auto steady = [&](const core::ScenarioResult& r) {
            return r.avg_error.mean_in(sim::TimePoint::from_seconds(T + 5.0),
                                       sim::TimePoint::from_seconds(1e9));
        };

        c.estimator = est::Backend::Grid;
        const auto cocoa_r = core::run_scenario(c);
        // Apples-to-apples: CoCoA without the Glomosim-style heading
        // re-anchoring at fixes, which the EKF (heading-less state) cannot do.
        c.heading_correction_at_fix = false;
        const auto cocoa_nh_r = core::run_scenario(c);
        c.heading_correction_at_fix = true;
        c.estimator = est::Backend::Ekf;
        const auto ekf_r = core::run_scenario(c);

        t.add_row({metrics::fmt(T, 0), metrics::fmt(steady(cocoa_r)),
                   metrics::fmt(steady(cocoa_nh_r)), metrics::fmt(steady(ekf_r))});
    }
    t.print(std::cout);

    bench::paper_note(
        "CoCoA is \"not tied to a specific localization technique\" (§5). Under "
        "equal odometry assumptions (no heading re-anchoring) the EKF performs "
        "on par with the windowed Bayesian fix at small-to-moderate T, with "
        "O(1) per-beacon updates and innovation gating; CoCoA's edge at large T "
        "comes from the odometry model's heading reset at each fix.");
    return 0;
}
