// Ablation: how the localizer treats "bad beacons" (§4.3.1) — beacons from
// beyond the Gaussian regime. Three policies:
//   all-bins       : every beacon with a PDF-table entry is used (default;
//                    matches the paper's algorithm, bad beacons included),
//   gaussian-only  : only Fig. 1(a)-regime bins are used,
//   cutoff -80 dBm : hard RSSI cutoff at the paper's stated boundary.
// All six (policy, T) cells run as one sweep on the replication engine.

#include <iostream>

#include "bench/common.hpp"

using namespace cocoa;

int main() {
    bench::print_header("Ablation — bad beacons policy",
                        "CoCoA accuracy vs how far-field beacons are admitted");

    struct Policy {
        const char* name;
        bool use_non_gaussian;
        double cutoff_dbm;
    };
    const Policy policies[] = {
        {"all-bins (paper)", true, -1e9},
        {"gaussian-only", false, -1e9},
        {"cutoff -80 dBm", true, -80.0},
    };
    const double periods[] = {10.0, 100.0};

    std::vector<core::ScenarioConfig> configs;
    for (const Policy& p : policies) {
        for (const double T : periods) {
            core::ScenarioConfig c = bench::paper_config();
            c.period = sim::Duration::seconds(T);
            c.tuning.use_non_gaussian_bins = p.use_non_gaussian;
            c.tuning.beacon_rssi_cutoff_dbm = p.cutoff_dbm;
            configs.push_back(c);
        }
    }
    const auto sets = bench::run_sweep(configs, 1);

    metrics::Table t({"policy", "T=10 avg err (m)", "T=100 avg err (m)",
                      "windows w/o fix (T=100)"});
    std::size_t next = 0;
    for (const Policy& p : policies) {
        const exp::ReplicationSet& t10 = sets[next++];
        const exp::ReplicationSet& t100 = sets[next++];
        t.add_row({p.name, metrics::fmt(t10.avg_error.mean()),
                   metrics::fmt(t100.avg_error.mean()),
                   std::to_string(t100.last.agent_totals.windows_without_fix)});
    }
    t.print(std::cout);

    bench::paper_note(
        "bad beacons are a real but bounded effect: the paper observes that at "
        "very small T they make the average error worse (7 m at T=10 vs 5 m at "
        "T=50). Dropping far beacons entirely costs coverage (more windows "
        "without a fix and ring-shaped single-anchor posteriors).");
    return 0;
}
