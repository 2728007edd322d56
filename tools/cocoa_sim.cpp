// cocoa_sim — command-line front end for the CoCoA simulator.
//
// Runs one scenario with the paper's defaults (overridable via flags),
// prints a summary, and optionally dumps CSV series for plotting:
//   cocoa_sim --robots 50 --anchors 25 --period 100 --vmax 2
//             --estimator grid --csv out/run1
// writes out/run1_avg_error.csv and out/run1_summary.csv.
//
// With --reps N (N > 1) the scenario instead runs N independent
// replications on the parallel replication engine (--threads workers) and
// prints mean / stddev / 95% CI aggregates. Aggregates are byte-identical
// for any --threads value.

#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <utility>
#include <vector>

#include "cli/args.hpp"
#include "core/scenario.hpp"
#include "core/swarm.hpp"
#include "est/estimator.hpp"
#include "exp/backend_sweep.hpp"
#include "exp/checkpoint.hpp"
#include "exp/replication.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/table.hpp"
#include "obs/obs.hpp"
#include "sim/checkpoint.hpp"

using namespace cocoa;

namespace {

int fail(const std::string& message) {
    std::cerr << "cocoa_sim: " << message << "\n";
    return 2;
}

/// Counter table summed over nodes ("node.<id>.mac.*" folds into "mac.*"),
/// printed for --counters. Deterministic: names sorted, values exact.
void print_counters(const std::vector<std::pair<std::string, std::uint64_t>>& snapshot) {
    metrics::Table table({"counter", "total"});
    for (const auto& [name, value] : obs::aggregate_node_counters(snapshot)) {
        table.add_row({name, std::to_string(value)});
    }
    std::cout << "\ncounters (summed over nodes):\n";
    table.print(std::cout);
}

/// Kernel throughput/allocation table for --kernel-stats. Every value except
/// the events/sec rate comes from deterministic counters (kernel.events.* /
/// kernel.pool.*); the rate folds in measured wall time, so scripts diffing
/// output across runs should filter it like the "simulation work" line.
void print_kernel_stats(
    const std::vector<std::pair<std::string, std::uint64_t>>& snapshot,
    std::uint64_t executed, double wall_seconds) {
    const std::map<std::string, std::uint64_t> kv(snapshot.begin(), snapshot.end());
    const auto get = [&kv](const std::string& name) -> std::uint64_t {
        const auto it = kv.find(name);
        return it == kv.end() ? 0 : it->second;
    };
    const auto pool_row = [&get](const std::string& pool) {
        const std::string base = "kernel.pool." + pool;
        const std::uint64_t reused = get(base + ".reused");
        const std::uint64_t fresh = get(base + ".fresh");
        const std::uint64_t oversize = get(base + ".oversize");
        const std::uint64_t total = reused + fresh + oversize;
        std::string cells = std::to_string(reused) + " / " + std::to_string(fresh) +
                            " / " + std::to_string(oversize);
        if (total > 0) {
            cells += "  (" +
                     metrics::fmt(100.0 * static_cast<double>(reused) /
                                  static_cast<double>(total)) +
                     "% hit)";
        }
        return cells;
    };

    metrics::Table table({"kernel stat", "value"});
    table.add_row({"executed events", std::to_string(executed)});
    table.add_row({"events/sec",
                   wall_seconds > 0.0
                       ? metrics::fmt(static_cast<double>(executed) / wall_seconds)
                       : std::string("-")});
    table.add_row({"scheduled", std::to_string(get("kernel.events.scheduled"))});
    table.add_row({"cancelled", std::to_string(get("kernel.events.cancelled"))});
    table.add_row({"peak pending", std::to_string(get("kernel.events.peak_pending"))});
    table.add_row({"callback SBO misses", std::to_string(get("kernel.events.sbo_miss"))});
    table.add_row({"frame pool (reused/fresh/oversize)", pool_row("frame")});
    table.add_row({"sensed pool (reused/fresh/oversize)", pool_row("sensed")});
    table.add_row({"packet pool (reused/fresh/oversize)", pool_row("packet")});
    std::cout << "\nkernel stats:\n";
    table.print(std::cout);
}

/// Single-run resilience table, printed only when a fault plan was active —
/// an unfaulted run's output stays byte-identical to the pre-fault tool.
void print_resilience(const fault::ResilienceReport& rep) {
    const auto opt_fmt = [](const std::optional<double>& v) {
        return v ? metrics::fmt(*v) : std::string("-");
    };
    metrics::Table table({"resilience metric", "value"});
    table.add_row({"availability (err <= " + metrics::fmt(rep.avail_threshold_m) + " m)",
                   metrics::fmt(rep.availability)});
    table.add_row({"  before first fault", metrics::fmt(rep.avail_before)});
    table.add_row({"  during fault intervals", metrics::fmt(rep.avail_during)});
    table.add_row({"  after recovery", metrics::fmt(rep.avail_after)});
    table.add_row({"error p50/p90 during (m)",
                   opt_fmt(rep.p50_during_m) + " / " + opt_fmt(rep.p90_during_m)});
    table.add_row({"error p50/p90 after (m)",
                   opt_fmt(rep.p50_after_m) + " / " + opt_fmt(rep.p90_after_m)});
    table.add_row({"mean time to reacquire (s)", metrics::fmt(rep.mean_reacquire_s)});
    table.add_row({"reacquired / never",
                   std::to_string(rep.reacquired) + " / " +
                       std::to_string(rep.never_reacquired)});
    std::cout << "\nresilience:\n";
    table.print(std::cout);
}

/// Swarm-family summary + the machine-readable swarm-json line (shared by
/// the straight --nodes path and --restore of a swarm blob).
void print_swarm(const core::SwarmResult& r, double wall_s, bool quiet) {
    const double events_per_node =
        static_cast<double>(r.executed_events) / static_cast<double>(r.nodes);
    if (!quiet) {
        metrics::Table table({"swarm metric", "value"});
        table.add_row({"nodes", std::to_string(r.nodes)});
        table.add_row({"area side (m)", metrics::fmt(r.area_side_m)});
        table.add_row({"simulated (s)", metrics::fmt(r.sim_seconds)});
        table.add_row({"wall (s)", metrics::fmt(wall_s)});
        table.add_row({"events executed", std::to_string(r.executed_events)});
        table.add_row({"events per node", metrics::fmt(events_per_node)});
        table.add_row({"frames on air", std::to_string(r.medium_stats.frames_sent)});
        table.add_row({"frames delivered", std::to_string(r.frames_delivered)});
        table.add_row({"missed asleep", std::to_string(r.medium_stats.missed_asleep)});
        table.add_row({"index migrations", std::to_string(r.index_stats.migrations)});
        table.add_row(
            {"index in-cell updates", std::to_string(r.index_stats.in_cell_updates)});
        table.add_row(
            {"index full refreshes", std::to_string(r.index_stats.full_refreshes)});
        const mac::spatial::RadiusCacheStats& cache = r.radius_cache_stats;
        table.add_row({"radius-cache lookups", std::to_string(cache.lookups)});
        table.add_row({"radius-cache hits", std::to_string(cache.hits)});
        table.add_row({"radius-cache misses", std::to_string(cache.misses)});
        table.add_row({"radius-cache evictions", std::to_string(cache.evictions)});
        table.print(std::cout);
    }
    // Machine-readable line for tools/check_scaling.py and the CI
    // scaling-curve artifact. One line, stable keys.
    std::cout << "swarm-json: {\"nodes\":" << r.nodes
              << ",\"area_side_m\":" << r.area_side_m
              << ",\"sim_s\":" << r.sim_seconds << ",\"wall_s\":" << wall_s
              << ",\"events\":" << r.executed_events
              << ",\"events_per_node\":" << events_per_node
              << ",\"frames_sent\":" << r.medium_stats.frames_sent
              << ",\"frames_delivered\":" << r.frames_delivered
              << ",\"index_migrations\":" << r.index_stats.migrations
              << ",\"index_full_refreshes\":" << r.index_stats.full_refreshes
              << "}\n";
}

/// Everything a finished single scenario run prints: summary table,
/// resilience, counters, kernel stats, the coarse error series and the CSV
/// dumps. Shared by the straight single-run path and --restore, so a
/// restored run's output can be diffed byte-for-byte against the straight
/// run's (the goldens' @restored cases, tests/golden/README.md).
struct SingleRunOutput {
    bool quiet = false;
    std::string csv_prefix;
    double pos_trace_interval_s = 0.0;
    bool show_counters = false;
    bool show_kernel_stats = false;
};

int print_single_run(const core::ScenarioResult& result, core::Scenario& scenario,
                     const fault::FaultInjector* injector, double run_wall_seconds,
                     const SingleRunOutput& o) {
    metrics::Table summary({"metric", "value"});
    summary.add_row({"avg localization error (m)",
                     metrics::fmt(result.avg_error.stats().mean())});
    summary.add_row({"max avg error (m)", metrics::fmt(result.avg_error.stats().max())});
    summary.add_row({"fixes", std::to_string(result.agent_totals.fixes)});
    summary.add_row({"windows without fix",
                     std::to_string(result.agent_totals.windows_without_fix)});
    summary.add_row({"beacons sent", std::to_string(result.agent_totals.beacons_sent)});
    summary.add_row(
        {"beacons received", std::to_string(result.agent_totals.beacons_received)});
    summary.add_row({"SYNCs delivered",
                     std::to_string(result.agent_totals.syncs_received)});
    summary.add_row({"frames on air", std::to_string(result.medium_stats.frames_sent)});
    summary.add_row({"team energy (kJ)",
                     metrics::fmt(result.team_energy.total_mj() / 1e6)});
    summary.add_row({"  tx (kJ)", metrics::fmt(result.team_energy.tx_mj / 1e6)});
    summary.add_row({"  rx (kJ)", metrics::fmt(result.team_energy.rx_mj / 1e6)});
    summary.add_row({"  idle (kJ)", metrics::fmt(result.team_energy.idle_mj / 1e6)});
    summary.add_row({"  sleep (kJ)", metrics::fmt(result.team_energy.sleep_mj / 1e6)});
    summary.add_row({"events executed", std::to_string(result.executed_events)});
    summary.print(std::cout);

    if (injector != nullptr) {
        print_resilience(injector->report(result));
    }
    if (o.show_counters) {
        print_counters(result.counters);
    }
    if (o.show_kernel_stats) {
        print_kernel_stats(result.counters, result.executed_events, run_wall_seconds);
    }

    if (!o.quiet) {
        std::cout << "\nerror over time (60 s buckets):\n";
        metrics::Table series({"t (s)", "avg error (m)"});
        const metrics::TimeSeries coarse =
            result.avg_error.downsample(sim::Duration::seconds(60.0));
        for (const auto& s : coarse.samples()) {
            series.add_row(
                {metrics::fmt(s.time.to_seconds(), 0), metrics::fmt(s.value)});
        }
        series.print(std::cout);
    }

    if (!o.csv_prefix.empty()) {
        {
            std::ofstream out(o.csv_prefix + "_avg_error.csv");
            if (!out) return fail("cannot write " + o.csv_prefix + "_avg_error.csv");
            metrics::Table csv({"t_s", "avg_error_m"});
            for (const auto& s : result.avg_error.samples()) {
                csv.add_row(
                    {metrics::fmt(s.time.to_seconds(), 0), metrics::fmt(s.value, 4)});
            }
            csv.print_csv(out);
        }
        {
            std::ofstream out(o.csv_prefix + "_summary.csv");
            if (!out) return fail("cannot write " + o.csv_prefix + "_summary.csv");
            summary.print_csv(out);
        }
        if (o.pos_trace_interval_s > 0.0) {
            std::ofstream out(o.csv_prefix + "_trace.csv");
            if (!out) return fail("cannot write " + o.csv_prefix + "_trace.csv");
            scenario.write_position_trace_csv(out);
        }
        std::cout << "\nwrote " << o.csv_prefix << "_avg_error.csv and "
                  << o.csv_prefix << "_summary.csv"
                  << (o.pos_trace_interval_s > 0.0 ? " and the position trace" : "")
                  << "\n";
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    int robots = 50;
    int anchors = 25;
    std::uint64_t seed = 7;
    double duration_s = 1800.0;
    double period_s = 100.0;
    double window_s = 3.0;
    int beacons_k = 3;
    double vmax = 2.0;
    double area_m = 200.0;
    std::string sync = "mrmm";
    std::string technique = "bayes";
    std::string estimator = "grid";
    bool no_sleep = false;
    bool blind_beaconing = false;
    bool no_culling = false;
    bool quiet = false;
    std::string csv_prefix;
    double pos_trace_interval_s = 0.0;
    std::string trace_file;
    std::string trace_format = "chrome";
    bool show_counters = false;
    bool show_kernel_stats = false;
    bool profile = false;
    int reps = 1;
    int threads = 0;
    int grid_threads = 0;
    int swarm_threads = 0;
    int swarm_nodes = 0;
    std::string fault_spec;
    std::string fault_file;
    double avail_threshold_m = 10.0;
    int resilience_sweep = -1;
    bool backend_sweep = false;
    double checkpoint_at_s = 0.0;
    std::string checkpoint_out;
    std::string restore_file;
    bool no_fork = false;
    bool no_fix_cpu = false;
    double fault_at_frac = 0.25;

    cli::ArgParser parser("cocoa_sim", "CoCoA mobile-robot localization simulator");
    parser.add_option("robots", "team size (default 50)", &robots)
        .add_option("anchors", "robots with localization devices (default 25)", &anchors)
        .add_option("seed", "master RNG seed (default 7)", &seed)
        .add_option("duration", "simulated seconds (default 1800)", &duration_s)
        .add_option("period", "beacon period T in seconds (default 100)", &period_s)
        .add_option("window", "transmit window t in seconds (default 3)", &window_s)
        .add_option("k", "beacons per window (default 3)", &beacons_k)
        .add_option("vmax", "maximum robot speed m/s (default 2)", &vmax)
        .add_option("area", "deployment area side in metres (default 200)", &area_m)
        .add_option("sync", "clock synchronization (default mrmm)", &sync,
                    {"mrmm", "perfect"})
        .add_option("technique", "RF fix technique (default bayes)", &technique,
                    {"bayes", "centroid", "ls"})
        .add_option("estimator",
                    "how blind robots localize: grid = CoCoA, rf = RF only, "
                    "odom = odometry only, or the ekf / lincvx extensions "
                    "(default grid; see docs/estimators.md)",
                    &estimator, {"grid", "ekf", "lincvx", "rf", "odom"})
        .add_flag("no-sleep", "disable sleep coordination (energy baseline)", &no_sleep)
        .add_flag("blind-beaconing", "localized blind robots also beacon", &blind_beaconing)
        .add_flag("no-culling",
                  "disable interference-radius culling in the medium "
                  "(output is bit-identical either way; this exists for perf "
                  "comparison and the sparse_3k@no-culling golden case)",
                  &no_culling)
        .add_flag("quiet", "summary only, no time series", &quiet)
        .add_option("csv", "prefix for CSV dumps (avg error + summary)", &csv_prefix)
        .add_option("pos-trace",
                    "record true+estimated positions every N seconds into "
                    "<csv>_trace.csv (requires --csv)",
                    &pos_trace_interval_s)
        .add_option("trace",
                    "write a sim-time event trace to <file> (frame/beacon/fix "
                    "events; Chrome about:tracing format by default)",
                    &trace_file)
        .add_option("trace-format", "event-trace format (default chrome)",
                    &trace_format, {"chrome", "jsonl"})
        .add_flag("counters",
                  "print the counter registry summed over nodes (and over "
                  "replications with --reps)",
                  &show_counters)
        .add_flag("kernel-stats",
                  "print event-kernel throughput and allocation stats "
                  "(executed events, events/sec, SBO misses, pool hit rates)",
                  &show_kernel_stats)
        .add_flag("profile", "print wall-clock profiling scopes to stderr", &profile)
        .add_option("reps",
                    "independent replications; >1 runs the parallel engine "
                    "and prints mean/CI aggregates (default 1)",
                    &reps, 1, 1000000)
        .add_option("threads",
                    "worker threads for --reps; 0 = all hardware threads "
                    "(default 0)",
                    &threads, 0, 4096)
        .add_option("grid-threads",
                    "worker threads for batched window-end grid updates "
                    "inside a run; 0 = inline fixes, -1 = all hardware "
                    "threads. Output is byte-identical at any value "
                    "(default 0)",
                    &grid_threads, -1, 4096)
        .add_option("swarm-threads",
                    "worker threads for the swarm family's sharded mobility "
                    "tick (--nodes runs); 0 = inline, -1 = all hardware "
                    "threads. Output is byte-identical at any value "
                    "(default 0)",
                    &swarm_threads, -1, 4096)
        .add_option("nodes",
                    "run the large-N swarm family instead of the CoCoA "
                    "scenario: N duty-cycled beaconing radios at fig7 density "
                    "on a sqrt(N)-sized area (honours --seed, --duration, "
                    "--no-culling, --swarm-threads, --quiet; prints a "
                    "'swarm-json:' line for the CI scaling job)",
                    &swarm_nodes, 0, 1000000)
        .add_option("fault",
                    "inject faults: ';'-separated specs like "
                    "'crash@300:node=3;loss@600+60:p=0.5' (see docs/faults.md)",
                    &fault_spec)
        .add_option("fault-file",
                    "read fault specs from <file> (one per line, # comments)",
                    &fault_file)
        .add_option("avail-threshold",
                    "error bound in metres for the availability metric "
                    "(default 10)",
                    &avail_threshold_m)
        .add_option("resilience-sweep",
                    "crash 0..K anchors at 25% of the run and tabulate error/"
                    "availability per K (uses --reps/--threads)",
                    &resilience_sweep, 0, 1000)
        .add_flag("backend-sweep",
                  "run every estimator backend across the standard fault "
                  "plans (baseline, loss bursts, anchor crashes) and tabulate "
                  "accuracy/availability/per-fix CPU per cell; honours "
                  "--reps/--threads/--avail-threshold; prints one "
                  "'backend-json:' line per cell",
                  &backend_sweep)
        .add_option("checkpoint-at",
                    "snapshot the complete simulation state T simulated "
                    "seconds in (requires --checkpoint-out; single runs and "
                    "--nodes runs), then keep running to the end",
                    &checkpoint_at_s)
        .add_option("checkpoint-out",
                    "file the --checkpoint-at blob is written to",
                    &checkpoint_out)
        .add_option("restore",
                    "resume from a --checkpoint-out blob and run to the "
                    "blob's configured duration; scenario config and fault "
                    "plan come from the blob, output matches the straight "
                    "run byte for byte",
                    &restore_file)
        .add_flag("no-fork",
                  "disable forked sweep execution: every cell re-simulates "
                  "its warm prefix instead of restoring it from an in-memory "
                  "checkpoint (outputs are byte-identical either way; this "
                  "exists for the CI fork gate and timing comparisons)",
                  &no_fork)
        .add_option("fault-at-frac",
                    "backend-sweep fault strike time as a fraction of the "
                    "run (default 0.25)",
                    &fault_at_frac)
        .add_flag("no-fix-cpu",
                  "skip the backend sweep's wall-clock per-fix CPU "
                  "measurement, leaving only deterministic columns (CI "
                  "identity diffs)",
                  &no_fix_cpu);
    if (!parser.parse(argc, argv, std::cout, std::cerr)) {
        return parser.failed() ? 2 : 0;
    }

    if (checkpoint_at_s < 0.0) {
        return fail("--checkpoint-at must be positive");
    }
    if (pos_trace_interval_s < 0.0) {
        return fail("--pos-trace must be >= 0 (0 records no trace)");
    }
    if (!(fault_at_frac >= 0.0 && fault_at_frac < 1.0)) {
        return fail("--fault-at-frac must be in [0, 1)");
    }
    // Seconds become int64 nanoseconds; a value past ~291 years would
    // overflow that conversion.
    const std::pair<const char*, double> times[] = {{"--duration", duration_s},
                                                     {"--period", period_s},
                                                     {"--window", window_s},
                                                     {"--checkpoint-at", checkpoint_at_s}};
    for (const auto& [flag, s] : times) {
        if (!sim::Duration::fits_seconds(s)) {
            return fail(std::string(flag) + " is out of range");
        }
    }
    if ((checkpoint_at_s > 0.0) != !checkpoint_out.empty()) {
        return fail("--checkpoint-at and --checkpoint-out go together");
    }
    if (checkpoint_at_s > 0.0 &&
        (reps > 1 || backend_sweep || resilience_sweep >= 0)) {
        return fail("--checkpoint-at works on single runs (and --nodes runs) only");
    }
    if (!restore_file.empty()) {
        if (reps > 1 || backend_sweep || resilience_sweep >= 0 || swarm_nodes > 0 ||
            !fault_spec.empty() || !fault_file.empty() || checkpoint_at_s > 0.0) {
            return fail("--restore resumes one blob to completion; drop the "
                        "run-shape flags (--reps, --fault*, --nodes, sweeps, "
                        "--checkpoint-at)");
        }
        if (profile) {
            obs::Profiler::set_enabled(true);
        }
        try {
            const std::string blob = sim::ckpt::read_blob_file(restore_file);
            sim::ckpt::Reader probe(blob);
            if (sim::ckpt::read_header(probe) == sim::ckpt::Flavor::kSwarm) {
                const std::unique_ptr<core::Swarm> swarm =
                    exp::restore_swarm_checkpoint(blob);
                const auto t0 = std::chrono::steady_clock::now();
                swarm->run();
                const double wall_s = std::chrono::duration<double>(
                                          std::chrono::steady_clock::now() - t0)
                                          .count();
                print_swarm(swarm->result(), wall_s, quiet);
            } else {
                exp::RestoredScenario restored =
                    exp::restore_scenario_checkpoint(blob);
                const auto t0 = std::chrono::steady_clock::now();
                restored.scenario->run();
                const double wall_s = std::chrono::duration<double>(
                                          std::chrono::steady_clock::now() - t0)
                                          .count();
                const core::ScenarioResult result = restored.scenario->result();
                SingleRunOutput out;
                out.quiet = quiet;
                out.csv_prefix = csv_prefix;
                out.pos_trace_interval_s = pos_trace_interval_s;
                out.show_counters = show_counters;
                out.show_kernel_stats = show_kernel_stats;
                const int rc = print_single_run(result, *restored.scenario,
                                                restored.injector.get(), wall_s, out);
                if (rc != 0) return rc;
            }
        } catch (const std::exception& e) {
            return fail(e.what());
        }
        if (profile) {
            obs::Profiler::instance().report(std::cerr);
        }
        return 0;
    }

    core::ScenarioConfig config;
    config.seed = seed;
    config.num_robots = robots;
    config.num_anchors = anchors;
    config.duration = sim::Duration::seconds(duration_s);
    config.period = sim::Duration::seconds(period_s);
    config.window = sim::Duration::seconds(window_s);
    config.beacons_per_window = beacons_k;
    config.max_speed = vmax;
    config.area_side_m = area_m;
    config.sleep_coordination = !no_sleep;
    config.blind_beaconing = blind_beaconing;
    config.grid_update_threads = grid_threads;
    config.medium.interference_culling = !no_culling;

    if (swarm_nodes > 0) {
        core::SwarmConfig sc;
        sc.nodes = swarm_nodes;
        sc.seed = seed;
        sc.duration = sim::Duration::seconds(duration_s);
        sc.medium = config.medium;
        sc.mobility_threads = swarm_threads;
        core::SwarmResult r;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            core::Swarm swarm(sc);
            if (checkpoint_at_s > 0.0) {
                swarm.run_until(sim::TimePoint::origin() +
                                sim::Duration::seconds(checkpoint_at_s));
                const std::string blob = exp::save_swarm_checkpoint(swarm);
                sim::ckpt::write_blob_file(checkpoint_out, blob);
                std::cout << "wrote checkpoint (" << blob.size() << " bytes) to "
                          << checkpoint_out << "\n";
            }
            swarm.run();
            r = swarm.result();
        } catch (const std::exception& e) {
            return fail(e.what());
        }
        const double wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        print_swarm(r, wall_s, quiet);
        return 0;
    }

    // All enum-valued flags are parser-validated choices; only the mapping
    // remains here.
    config.estimator = *est::parse_backend(estimator);
    config.sync = sync == "mrmm" ? core::SyncMode::Mrmm : core::SyncMode::PerfectClock;
    config.tuning.technique =
        technique == "bayes"      ? core::RfTechnique::BayesianGrid
        : technique == "centroid" ? core::RfTechnique::WeightedCentroid
                                  : core::RfTechnique::LeastSquares;

    fault::FaultPlan plan;
    try {
        if (!fault_file.empty()) {
            plan = fault::FaultPlan::parse_file(fault_file);
        }
        if (!fault_spec.empty()) {
            fault::FaultPlan from_spec = fault::FaultPlan::parse(fault_spec);
            plan.events.insert(plan.events.end(), from_spec.events.begin(),
                               from_spec.events.end());
        }
        plan.avail_threshold_m = avail_threshold_m;
        plan.validate();
    } catch (const std::exception& e) {
        return fail(e.what());
    }
    if (resilience_sweep >= 0 && !plan.empty()) {
        return fail("--resilience-sweep builds its own plans; drop --fault/--fault-file");
    }
    if (resilience_sweep > anchors) {
        return fail("--resilience-sweep cannot crash more anchors than --anchors");
    }
    if (backend_sweep && (!plan.empty() || resilience_sweep >= 0)) {
        return fail("--backend-sweep builds its own plans; drop "
                    "--fault/--fault-file/--resilience-sweep");
    }

    if (pos_trace_interval_s > 0.0 && csv_prefix.empty()) {
        return fail("--pos-trace requires --csv <prefix>");
    }
    if (pos_trace_interval_s > 0.0 && reps > 1) {
        return fail("--pos-trace requires --reps 1 (one scenario to trace)");
    }
    if (!trace_file.empty() && reps > 1) {
        return fail("--trace requires --reps 1 (one scenario to trace)");
    }
    const obs::TraceSink::Format event_trace_format = trace_format == "jsonl"
                                                          ? obs::TraceSink::Format::Jsonl
                                                          : obs::TraceSink::Format::ChromeTrace;
    if (profile) {
        obs::Profiler::set_enabled(true);
    }

    if (backend_sweep) {
        exp::BackendSweepOptions opt;
        opt.n_reps = reps;
        opt.n_threads = threads;
        opt.avail_threshold_m = avail_threshold_m;
        opt.fault_at_frac = fault_at_frac;
        opt.fork = !no_fork;
        opt.measure_cpu = !no_fix_cpu;
        // Keep the crash axis inside the scenario's anchor budget.
        std::erase_if(opt.crashed_anchors, [&](int k) { return k > anchors; });
        std::vector<exp::BackendCell> cells;
        try {
            config.validate();
            cells = exp::run_backend_sweep(config, opt);
        } catch (const std::exception& e) {
            return fail(e.what());
        }

        metrics::Table table({"backend", "plan", "steady err (m)", "avail",
                              "avail during", "reacquire (s)", "fixes",
                              "fix cpu (us)"});
        for (const exp::BackendCell& cell : cells) {
            table.add_row({est::to_string(cell.backend), cell.plan,
                           metrics::fmt(cell.steady_error_m),
                           cell.has_resilience ? metrics::fmt(cell.availability) : "-",
                           cell.has_resilience && cell.avail_during > 0.0
                               ? metrics::fmt(cell.avail_during)
                               : "-",
                           cell.has_resilience && cell.reacquire_s > 0.0
                               ? metrics::fmt(cell.reacquire_s)
                               : "-",
                           std::to_string(cell.fixes),
                           metrics::fmt(cell.fix_cpu_ns / 1000.0)});
        }
        std::cout << "backend sweep: " << reps
                  << " reps per cell, availability threshold " << avail_threshold_m
                  << " m\n";
        table.print(std::cout);
        // One machine-readable record per cell for scripts/CI artifacts.
        for (const exp::BackendCell& cell : cells) {
            std::cout << "backend-json: " << cell.json() << "\n";
        }
        if (!csv_prefix.empty()) {
            std::ofstream out(csv_prefix + "_backends.csv");
            if (!out) return fail("cannot write " + csv_prefix + "_backends.csv");
            table.print_csv(out);
            std::cout << "wrote " << csv_prefix << "_backends.csv\n";
        }
        if (profile) {
            obs::Profiler::instance().report(std::cerr);
        }
        return 0;
    }

    if (resilience_sweep >= 0) {
        // Crash k = 0..K of the anchors (highest ids first) at a fraction of
        // the run; same seeds per k, so rows differ only by injected faults.
        exp::ReplicationOptions opt;
        opt.n_reps = reps;
        opt.n_threads = threads;
        opt.fork = !no_fork;
        const sim::TimePoint strike =
            sim::TimePoint::origin() +
            sim::Duration::seconds(duration_s * fault_at_frac);
        std::vector<core::ScenarioConfig> configs;
        std::vector<fault::FaultPlan> plans;
        for (int k = 0; k <= resilience_sweep; ++k) {
            configs.push_back(config);
            fault::FaultPlan p = fault::anchor_crash_plan(anchors, k, strike);
            p.avail_threshold_m = avail_threshold_m;
            plans.push_back(std::move(p));
        }
        std::vector<exp::ReplicationSet> sets;
        try {
            config.validate();
            sets = exp::run_sweep(configs, plans, opt);
        } catch (const std::exception& e) {
            return fail(e.what());
        }

        metrics::Table table({"crashed anchors", "steady err (m)", "avail",
                              "avail during", "reacquire (s)"});
        for (int k = 0; k <= resilience_sweep; ++k) {
            const exp::ReplicationSet& set = sets[static_cast<std::size_t>(k)];
            table.add_row(
                {std::to_string(k), set.steady_ci(),
                 set.has_resilience ? metrics::fmt(set.availability.mean()) : "-",
                 set.avail_during.count() > 0 ? metrics::fmt(set.avail_during.mean())
                                              : "-",
                 set.reacquire_s.count() > 0 ? metrics::fmt(set.reacquire_s.mean())
                                             : "-"});
        }
        std::cout << "resilience sweep: " << reps << " reps per point, anchors"
                  << " crashed at t=" << duration_s * fault_at_frac
                  << " s, availability"
                  << " threshold " << avail_threshold_m << " m\n";
        table.print(std::cout);
        if (!csv_prefix.empty()) {
            std::ofstream out(csv_prefix + "_resilience.csv");
            if (!out) return fail("cannot write " + csv_prefix + "_resilience.csv");
            table.print_csv(out);
            std::cout << "wrote " << csv_prefix << "_resilience.csv\n";
        }
        if (profile) {
            obs::Profiler::instance().report(std::cerr);
        }
        return 0;
    }

    if (reps > 1) {
        exp::ReplicationOptions opt;
        opt.n_reps = reps;
        opt.n_threads = threads;
        opt.fork = !no_fork;
        exp::ReplicationSet set;
        try {
            config.validate();
            set = exp::run_replications(config, plan, opt);
        } catch (const std::exception& e) {
            return fail(e.what());
        }

        if (!quiet) {
            metrics::Table per_rep({"rep", "seed", "avg err (m)", "steady err (m)",
                                    "energy (kJ)", "wall (s)"});
            for (const exp::ReplicationRecord& r : set.records) {
                per_rep.add_row({std::to_string(r.index), std::to_string(r.seed),
                                 metrics::fmt(r.avg_error_m),
                                 metrics::fmt(r.steady_error_m),
                                 metrics::fmt(r.total_energy_kj),
                                 metrics::fmt(r.wall_seconds)});
            }
            per_rep.print(std::cout);
            std::cout << "\n";
        }

        metrics::Table aggregate(
            {"metric", "mean", "stddev", "95% CI ±", "min", "max"});
        const auto stat_row = [&aggregate](const std::string& name,
                                           const metrics::RunningStat& s) {
            aggregate.add_row({name, metrics::fmt(s.mean()), metrics::fmt(s.stddev()),
                               metrics::fmt(metrics::ci95_halfwidth(s)),
                               metrics::fmt(s.min()), metrics::fmt(s.max())});
        };
        stat_row("avg localization error (m)", set.avg_error);
        stat_row("steady-state error (m)", set.steady_error);
        stat_row("team energy (kJ)", set.total_energy_kj);
        if (set.has_resilience) {
            stat_row("availability", set.availability);
            if (set.avail_during.count() > 0) {
                stat_row("availability during faults", set.avail_during);
            }
            if (set.reacquire_s.count() > 0) {
                stat_row("time to reacquire (s)", set.reacquire_s);
            }
        }
        aggregate.print(std::cout);

        if (show_counters) {
            // counter_totals is folded in replication-index order, so this
            // table is byte-identical for any --threads value.
            print_counters({set.counter_totals.begin(), set.counter_totals.end()});
        }
        if (show_kernel_stats) {
            // executed_events_total and the counters are deterministic; only
            // the events/sec rate depends on measured wall time.
            print_kernel_stats({set.counter_totals.begin(), set.counter_totals.end()},
                               set.executed_events_total, set.total_wall_seconds);
        }
        std::cout << "\n" << reps << " replications, "
                  << set.total_wall_seconds << " s of simulation work\n";

        if (!csv_prefix.empty()) {
            std::ofstream out(csv_prefix + "_aggregate.csv");
            if (!out) return fail("cannot write " + csv_prefix + "_aggregate.csv");
            aggregate.print_csv(out);
            std::cout << "wrote " << csv_prefix << "_aggregate.csv\n";
        }
        if (profile) {
            obs::Profiler::instance().report(std::cerr);
        }
        return 0;
    }

    core::ScenarioResult result;
    std::optional<core::Scenario> scenario;
    std::optional<fault::FaultInjector> injector;
    double run_wall_seconds = 0.0;
    try {
        config.validate();
        scenario.emplace(config);
        if (!plan.empty()) {
            injector.emplace(*scenario, plan);
            injector->arm();
            if (!quiet) {
                std::cout << "fault plan:\n" << plan.summary();
            }
        }
        if (pos_trace_interval_s > 0.0) {
            scenario->enable_position_trace(
                sim::Duration::seconds(pos_trace_interval_s));
        }
        if (!trace_file.empty()) {
            scenario->obs().trace.open_file(trace_file, event_trace_format);
        }
        const auto run_t0 = std::chrono::steady_clock::now();
        if (checkpoint_at_s > 0.0) {
            scenario->run_until(sim::TimePoint::origin() +
                                sim::Duration::seconds(checkpoint_at_s));
            const std::string blob = exp::save_scenario_checkpoint(
                *scenario, injector ? &*injector : nullptr);
            sim::ckpt::write_blob_file(checkpoint_out, blob);
            std::cout << "wrote checkpoint (" << blob.size() << " bytes) to "
                      << checkpoint_out << "\n";
        }
        scenario->run();
        run_wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - run_t0)
                               .count();
        result = scenario->result();
        if (!trace_file.empty()) {
            const std::uint64_t events = scenario->obs().trace.events_emitted();
            scenario->obs().trace.close();
            std::cout << "wrote " << events << " trace events to " << trace_file
                      << "\n";
        }
    } catch (const std::exception& e) {
        return fail(e.what());
    }

    const SingleRunOutput out_opts{quiet, csv_prefix, pos_trace_interval_s,
                                   show_counters, show_kernel_stats};
    const int rc = print_single_run(result, *scenario,
                                    injector ? &*injector : nullptr,
                                    run_wall_seconds, out_opts);
    if (rc != 0) return rc;
    if (profile) {
        obs::Profiler::instance().report(std::cerr);
    }
    return 0;
}
