// Figure 8: CDF of the CoCoA localization error at three time instances:
// just before a transmit window, right after localization completes, and in
// the middle of a beacon period (T/2 after the window), for T = 100 s.

#include <iostream>
#include <optional>
#include <string>

#include "bench/common.hpp"
#include "metrics/cdf.hpp"

using namespace cocoa;

// A configuration that yields zero fixes has no quantiles; print "n/a"
// instead of aborting the whole figure.
static std::string fmt_quantile(const std::optional<double>& q) {
    return q.has_value() ? metrics::fmt(*q) : "n/a";
}

int main() {
    bench::print_header("Figure 8 — CDF of localization error at three instants",
                        "CoCoA, T = 100 s; robot population CDFs");

    core::ScenarioConfig c = bench::paper_config();
    c.estimator = est::Backend::Grid;
    bench::print_config(c);
    const auto r = core::run_scenario(c);

    // The paper samples around t = 800 s: 799 s is the end of a beacon period
    // (just before the next window), 804 s is right after the transmit
    // window, 854 s is mid-period while radios sleep.
    struct Instant {
        double t;
        const char* label;
    };
    const Instant instants[] = {
        {799.0, "end of period (just before window)"},
        {804.0, "right after transmit window"},
        {854.0, "mid period (radio sleeping)"},
    };

    std::vector<metrics::Cdf> cdfs;
    for (const Instant& inst : instants) {
        cdfs.emplace_back(r.errors_at(sim::TimePoint::from_seconds(inst.t)));
        std::cout << "t = " << inst.t << " s (" << inst.label
                  << "): median = " << fmt_quantile(cdfs.back().quantile(0.5))
                  << " m, p90 = " << fmt_quantile(cdfs.back().quantile(0.9))
                  << " m, max = " << metrics::fmt(cdfs.back().max()) << " m\n";
    }

    std::cout << "\n";
    metrics::Table t({"error (m)", "CDF @799s", "CDF @804s", "CDF @854s"});
    for (const double x : {1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0}) {
        t.add_row({metrics::fmt(x, 0), metrics::fmt(cdfs[0].at(x)),
                   metrics::fmt(cdfs[1].at(x)), metrics::fmt(cdfs[2].at(x))});
    }
    t.print(std::cout);

    bench::paper_note(
        "localization is best right after beacons are received (804 s); locations "
        "deteriorate over the period but not significantly, and more than 90% of "
        "the robots stay below 10 m error.");
    return 0;
}
