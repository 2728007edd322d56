// Extension (paper §5): "CoCoA is not tied to a specific localization
// technique. ... Other approaches could be integrated in CoCoA as well.
// CoCoA provides the means for any specific localization technique to be
// used in a cooperative and coordinated manner."
//
// This bench swaps the fix estimator while keeping everything else (beacons,
// PDF table, coordination) identical: the paper's Bayesian grid, a cheap
// weighted-centroid baseline, and Gauss-Newton least-squares multilateration.

#include <chrono>
#include <iostream>

#include "bench/common.hpp"

using namespace cocoa;

int main() {
    bench::print_header("Extension — pluggable localization techniques",
                        "Bayesian grid vs weighted centroid vs least squares");

    struct Technique {
        const char* name;
        core::RfTechnique technique;
    };
    const Technique techniques[] = {
        {"Bayesian grid (paper)", core::RfTechnique::BayesianGrid},
        {"weighted centroid", core::RfTechnique::WeightedCentroid},
        {"least squares", core::RfTechnique::LeastSquares},
    };

    metrics::Table t({"technique", "avg err (m)", "steady (m)", "p90-style max (m)",
                      "wall time (s)"});
    for (const Technique& tech : techniques) {
        core::ScenarioConfig c = bench::paper_config();
        c.tuning.technique = tech.technique;
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = core::run_scenario(c);
        const auto t1 = std::chrono::steady_clock::now();
        double max_after = 0.0;
        for (const auto& s : r.avg_error.samples()) {
            if (s.time >= sim::TimePoint::from_seconds(105)) {
                max_after = std::max(max_after, s.value);
            }
        }
        t.add_row({tech.name, metrics::fmt(r.avg_error.stats().mean()),
                   metrics::fmt(r.avg_error.mean_in(sim::TimePoint::from_seconds(105),
                                                    sim::TimePoint::from_seconds(1e9))),
                   metrics::fmt(max_after),
                   metrics::fmt(std::chrono::duration<double>(t1 - t0).count())});
    }
    t.print(std::cout);

    bench::paper_note(
        "the Bayesian grid is the most accurate (it uses the full distance "
        "PDFs); least squares comes close at a fraction of the compute; the "
        "weighted centroid is cheapest and coarsest. All three plug into the "
        "same cooperative, coordinated architecture.");
    return 0;
}
