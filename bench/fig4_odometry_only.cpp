// Figure 4: localization error over time when robots rely only on odometry
// (initial position given). Two maximum speeds: 0.5 m/s and 2.0 m/s (§4.1).

#include <iostream>

#include "bench/common.hpp"

using namespace cocoa;

int main() {
    bench::print_header("Figure 4 — localization error, odometry only",
                        "average over all 50 robots, initial positions known");

    std::vector<std::string> names;
    std::vector<metrics::TimeSeries> series;
    for (const double vmax : {0.5, 2.0}) {
        core::ScenarioConfig c = bench::paper_config();
        c.estimator = est::Backend::Odometry;
        c.max_speed = vmax;
        if (vmax == 0.5) bench::print_config(c);
        const auto r = core::run_scenario(c);
        names.push_back("err, vmax=" + metrics::fmt(vmax, 1) + " m/s (m)");
        series.push_back(r.avg_error);

        std::cout << "vmax = " << vmax << " m/s: avg over time = "
                  << metrics::fmt(r.avg_error.stats().mean()) << " m, at t=1800 s = "
                  << metrics::fmt(r.avg_error.mean_in(sim::TimePoint::from_seconds(1750),
                                                      sim::TimePoint::from_seconds(1801)))
                  << " m, max = " << metrics::fmt(r.avg_error.stats().max()) << " m\n";
    }
    std::cout << "\n";
    bench::print_series_multi(names, series, sim::Duration::seconds(60.0));
    bench::paper_note(
        "error increases significantly over time and exceeds 100 m after half an "
        "hour for both speeds; odometry alone is not accurate enough.");
    return 0;
}
