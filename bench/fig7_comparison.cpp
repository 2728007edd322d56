// Figure 7: localization error over time for T = 100 s under (i) odometry
// only, (ii) RF localization only, and (iii) CoCoA (RF + odometry), at both
// maximum speeds (0.5 and 2.0 m/s). All six (speed, estimator) cells run as
// one sweep on the replication engine.

#include <iostream>

#include "bench/common.hpp"

using namespace cocoa;

int main() {
    bench::print_header("Figure 7 — odometry vs RF-only vs CoCoA, T = 100 s",
                        "the paper's headline comparison (§4.3)");

    const std::pair<est::Backend, const char*> modes[] = {
        {est::Backend::Odometry, "odometry"},
        {est::Backend::Rf, "RF only"},
        {est::Backend::Grid, "CoCoA"},
    };
    const double speeds[] = {0.5, 2.0};

    std::vector<core::ScenarioConfig> configs;
    for (const double vmax : speeds) {
        for (const auto& [estimator, name] : modes) {
            core::ScenarioConfig c = bench::paper_config();
            c.estimator = estimator;
            c.max_speed = vmax;
            configs.push_back(c);
        }
    }
    const auto sets = bench::run_sweep(configs, 3);
    const std::string reps = std::to_string(sets.front().records.size());

    std::size_t next = 0;
    for (const double vmax : speeds) {
        std::cout << "---- vmax = " << vmax << " m/s ----\n";
        std::vector<std::string> names;
        std::vector<metrics::TimeSeries> series;
        metrics::Table summary({"mode", "avg err (m, " + reps + " reps)",
                                "steady-state avg (m, " + reps + " reps)",
                                "95% CI (m)"});
        for (const auto& mode_entry : modes) {
            const char* name = mode_entry.second;
            const exp::ReplicationSet& agg = sets[next++];
            names.push_back(std::string(name) + " (m)");
            series.push_back(agg.last.avg_error);
            summary.add_row({name, agg.avg_pm(), agg.steady_pm(), agg.avg_ci()});
        }
        summary.print(std::cout);
        std::cout << "\n";
        bench::print_series_multi(names, series, sim::Duration::seconds(90.0));
        std::cout << "\n";
    }
    bench::paper_note(
        "CoCoA combines the advantages of both: at vmax = 2 m/s its average error "
        "over time is ~6.5 m versus ~33 m for the RF-only algorithm, while "
        "odometry alone exceeds 100 m by the end.");
    return 0;
}
