// Quickstart: run a small CoCoA deployment and print how well the blind
// robots localize, plus what the coordination saved in energy.
//
// This exercises the whole public API surface: scenario configuration,
// running, and result inspection.

#include <iostream>

#include "core/scenario.hpp"
#include "metrics/table.hpp"

int main() {
    using namespace cocoa;

    core::ScenarioConfig config;
    config.seed = 42;
    config.num_robots = 20;
    config.num_anchors = 10;
    config.max_speed = 2.0;
    config.duration = sim::Duration::minutes(5);
    config.period = sim::Duration::seconds(50.0);   // T
    config.window = sim::Duration::seconds(3.0);    // t
    config.estimator = est::Backend::Grid;          // RF fixes + odometry = CoCoA
    config.sync = core::SyncMode::Mrmm;             // SYNC over the MRMM mesh

    std::cout << "CoCoA quickstart: " << config.num_robots << " robots ("
              << config.num_anchors << " anchors), T = "
              << config.period.to_seconds() << " s, t = "
              << config.window.to_seconds() << " s, "
              << config.duration.to_seconds() << " s simulated\n\n";

    const core::ScenarioResult result = core::run_scenario(config);

    metrics::Table table({"metric", "value"});
    table.add_row({"avg localization error (m)", metrics::fmt(result.avg_error.stats().mean())});
    table.add_row({"max localization error (m)", metrics::fmt(result.avg_error.stats().max())});
    table.add_row({"position fixes", std::to_string(result.agent_totals.fixes)});
    table.add_row({"windows without a fix",
                   std::to_string(result.agent_totals.windows_without_fix)});
    table.add_row({"beacons sent", std::to_string(result.agent_totals.beacons_sent)});
    table.add_row({"beacons received", std::to_string(result.agent_totals.beacons_received)});
    table.add_row({"SYNCs delivered", std::to_string(result.agent_totals.syncs_received)});
    table.add_row({"team energy (J)", metrics::fmt(result.team_energy.total_mj() / 1000.0)});
    table.add_row({"  tx (J)", metrics::fmt(result.team_energy.tx_mj / 1000.0)});
    table.add_row({"  rx (J)", metrics::fmt(result.team_energy.rx_mj / 1000.0)});
    table.add_row({"  idle (J)", metrics::fmt(result.team_energy.idle_mj / 1000.0)});
    table.add_row({"  sleep (J)", metrics::fmt(result.team_energy.sleep_mj / 1000.0)});
    table.add_row({"frames on air", std::to_string(result.medium_stats.frames_sent)});
    table.print(std::cout);

    std::cout << "\nError over time (30 s buckets):\n";
    metrics::Table series({"t (s)", "avg error (m)"});
    const metrics::TimeSeries coarse =
        result.avg_error.downsample(sim::Duration::seconds(30.0));
    for (const auto& s : coarse.samples()) {
        series.add_row({metrics::fmt(s.time.to_seconds(), 0), metrics::fmt(s.value)});
    }
    series.print(std::cout);
    return 0;
}
