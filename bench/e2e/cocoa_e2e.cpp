// cocoa_e2e: the end-to-end benchmark's workload runner (see bench/e2e/README.md).
//
// One process runs one workload once, through the library's public entry
// points only, and prints one JSON object on stdout: set-up and run wall
// times, per-round wall times, peak RSS, an output digest and a machine
// stamp. With --trace FILE it also turns on obs::Profiler, keeps spans around
// its own calls into each layer, runs the post-run probes, adds per-layer
// metrics to the JSON and writes the spans to FILE.
//
//   cocoa_e2e --workload fig7_grid|dense_lincvx|swarm_16k|sweep_fork
//             [--seed N] [--trace FILE] [--smoke]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/grid_kernels.hpp"
#include "core/scenario.hpp"
#include "core/swarm.hpp"
#include "exp/backend_sweep.hpp"
#include "exp/checkpoint.hpp"
#include "exp/replication.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "mac/fanout_kernels.hpp"
#include "obs/counters.hpp"
#include "obs/profile.hpp"
#include "phy/pdf_table.hpp"
#include "sim/random.hpp"

using namespace cocoa;

namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, std::uint64_t>;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t get(const Counters& c, const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

/// reused / all allocations of one kernel.pool.<name> family, in percent.
double pool_hit_pct(const Counters& c, const std::string& pool) {
    const double reused = static_cast<double>(get(c, pool + ".reused"));
    const double all = reused + static_cast<double>(get(c, pool + ".fresh")) +
                       static_cast<double>(get(c, pool + ".oversize"));
    return 100.0 * ratio(reused, all);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent of each call this program makes into a
// layer. Kept in memory (only when tracing) and written out at exit.
// ---------------------------------------------------------------------------

class Spans {
  public:
    explicit Spans(bool on) : on_(on) {}

    int open(const char* name, int parent) {
        if (!on_) return -1;
        spans_.push_back({name, now_ns(), 0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    }

    void write(std::ostream& os) const {
        os << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            os << (i == 0 ? "" : ",\n ") << "{\"name\":\"" << s.name
               << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
               << ",\"parent\":" << s.parent << "}";
        }
        os << "]";
    }

  private:
    struct Span {
        const char* name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        int parent;  ///< index into spans_, -1 for the root
    };

    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    }

    bool on_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

class SpanScope {
  public:
    SpanScope(Spans& spans, const char* name, int parent)
        : spans_(spans), id_(spans.open(name, parent)) {}
    ~SpanScope() { spans_.close(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    int id() const { return id_; }

  private:
    Spans& spans_;
    int id_;
};

/// Runs `f` inside a span and returns its wall time in milliseconds.
template <class F>
double timed_ms(Spans& spans, const char* name, int parent, F&& f) {
    const SpanScope span(spans, name, parent);
    const auto t0 = Clock::now();
    f();
    return ms_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Options, workload configurations and the per-run record.
// ---------------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 7;
    std::string trace_path;
    bool smoke = false;  ///< toy sizes, for the ctest smoke test

    bool traced() const { return !trace_path.empty(); }
};

struct Run {
    std::vector<double> setup_s;
    double run_s = 0.0;
    std::vector<double> round_ms;
    std::string digest_text;  ///< canonical output; only its hash is printed
    std::string check_error;  ///< empty when the output sanity checks pass
    std::vector<std::pair<std::string, double>> layers;  ///< traced runs only

    void layer(const std::string& name, double value) { layers.emplace_back(name, value); }
    void check(bool ok, const char* what) {
        if (!ok && check_error.empty()) check_error = what;
    }
};

const sim::TimePoint kOrigin = sim::TimePoint::origin();

/// Constructions timed per run; setup_s is their median.
constexpr int kSetups = 7;

/// fig7_grid: the paper's §4 headline run (ScenarioConfig defaults: 50 robots,
/// 25 anchors, 200 m, 30 min, T = 100 s, grid estimator), fixes inline.
core::ScenarioConfig fig7_config(const Options& o) {
    core::ScenarioConfig c;
    c.seed = o.seed;
    c.grid_update_threads = 0;
    if (o.smoke) {
        c.num_robots = 12;
        c.num_anchors = 6;
        c.duration = sim::Duration::seconds(200.0);
        c.period = sim::Duration::seconds(20.0);
    }
    return c;
}

/// dense_lincvx: 4x the robots on 4x the area, T = 20 s, and the near-free
/// LinCvx estimator, so the kernel, CSMA, fanout and ODMRP dominate.
core::ScenarioConfig dense_config(const Options& o) {
    core::ScenarioConfig c;
    c.seed = o.seed;
    c.num_robots = o.smoke ? 30 : 200;
    c.num_anchors = o.smoke ? 15 : 100;
    c.area_side_m = o.smoke ? 200.0 : 400.0;
    c.period = sim::Duration::seconds(20.0);
    c.duration = sim::Duration::seconds(o.smoke ? 200.0 : 1800.0);
    c.estimator = est::Backend::LinCvx;
    return c;
}

/// swarm_16k: 16,384 duty-cycled radios at fig7 density, mobility inline.
core::SwarmConfig swarm_config(const Options& o) {
    core::SwarmConfig c;
    c.seed = o.seed;
    c.nodes = o.smoke ? 500 : 16384;
    c.duration = sim::Duration::seconds(o.smoke ? 5.0 : 30.0);
    c.mobility_threads = 0;
    c.collect_final_positions = true;
    return c;
}

/// sweep_fork: the backend x fault-plan grid on a small team. Grid is left
/// out so its fix cost does not swamp the exp, fault and checkpoint work.
core::ScenarioConfig sweep_config(const Options& o) {
    core::ScenarioConfig c;
    c.seed = o.seed;
    c.num_robots = o.smoke ? 12 : 20;
    c.num_anchors = o.smoke ? 10 : 12;
    c.area_side_m = o.smoke ? 100.0 : 150.0;
    c.duration = sim::Duration::seconds(o.smoke ? 100.0 : 600.0);
    c.period = sim::Duration::seconds(20.0);
    return c;
}

exp::BackendSweepOptions sweep_options() {
    exp::BackendSweepOptions opts;
    opts.backends = {est::Backend::Ekf, est::Backend::LinCvx};
    opts.n_reps = 4;
    opts.n_threads = 2;
    opts.fault_at_frac = 0.6;
    opts.measure_cpu = false;
    return opts;
}

/// One sweep round is one run_backend_sweep call of 4 replications; each
/// round gets its own master seed, so 8 rounds cover 32 replications.
int sweep_rounds(const Options& o) { return o.smoke ? 1 : 8; }

core::ScenarioConfig sweep_round_config(const core::ScenarioConfig& base, int round) {
    core::ScenarioConfig c = base;
    c.seed = base.seed * 1000 + static_cast<std::uint64_t>(round);
    return c;
}

/// The scenario the sweep's first warm prefix builds: round 0, the first
/// backend, replication 0, seeded as exp::run_sweep seeds it.
core::ScenarioConfig sweep_prefix_config(const core::ScenarioConfig& base,
                                         const exp::BackendSweepOptions& opts) {
    core::ScenarioConfig c = sweep_round_config(base, 0);
    c.estimator = opts.backends.front();
    c.seed = exp::replication_seed(c.seed, 0);
    return c;
}

/// The table Scenario's constructor would calibrate itself: same channel,
/// same calibration settings, same RNG stream.
std::shared_ptr<const phy::PdfTable> calibrate(const phy::ChannelConfig& channel,
                                               const phy::CalibrationConfig& calibration,
                                               std::uint64_t seed) {
    return std::make_shared<const phy::PdfTable>(phy::PdfTable::calibrate(
        phy::Channel(channel), calibration, sim::RngManager(seed).stream("calibration")));
}

/// Times kSetups cold constructions (calibrate + build) of `config`. Returns
/// the last one, ready to run; the earlier ones are destroyed untimed.
std::unique_ptr<core::Scenario> set_up_scenario(const core::ScenarioConfig& config,
                                                const Options& o, Spans& spans, int root,
                                                Run& run) {
    std::unique_ptr<core::Scenario> scenario;
    std::vector<double> calibrate_ms;
    std::vector<double> build_ms;
    for (int i = 0; i < kSetups; ++i) {
        scenario.reset();
        const SpanScope setup(spans, "setup", root);
        std::shared_ptr<const phy::PdfTable> table;
        calibrate_ms.push_back(timed_ms(spans, "calibrate", setup.id(), [&] {
            table = calibrate(config.channel, config.calibration, config.seed);
        }));
        build_ms.push_back(timed_ms(spans, "build", setup.id(), [&] {
            scenario = std::make_unique<core::Scenario>(config, table);
        }));
        run.setup_s.push_back((calibrate_ms.back() + build_ms.back()) / 1e3);
    }
    if (o.traced()) {
        run.layer("phy.calibrate_ms", median(calibrate_ms));
        run.layer("core.build_ms", median(build_ms));
    }
    return scenario;
}

const obs::Profiler::Entry* find_entry(const std::vector<obs::Profiler::Entry>& entries,
                                       const char* name) {
    for (const auto& e : entries) {
        if (e.name == name) return &e;
    }
    return nullptr;
}

/// est.*: constraints folded into a belief (grid: apply_constraint calls from
/// the profiler; EKF / LinCvx: their accepted-measurement counters), the grid
/// kernel's cost per call and its share of scenario.run.
void estimator_layers(const std::vector<obs::Profiler::Entry>& profile,
                      const Counters& counters, std::uint64_t windows_without_fix,
                      Run& run) {
    const obs::Profiler::Entry* apply = find_entry(profile, "core.apply_constraint");
    const obs::Profiler::Entry* scen = find_entry(profile, "scenario.run");
    const double apply_calls = apply ? static_cast<double>(apply->calls) : 0.0;
    const double apply_ns = apply ? static_cast<double>(apply->total_ns) : 0.0;
    run.layer("est.constraints", apply_calls +
                                     static_cast<double>(get(counters, "est.beacons_used") +
                                                         get(counters, "est.updates_accepted")));
    if (apply_calls > 0) run.layer("est.constraint_us", apply_ns / apply_calls / 1e3);
    run.layer("est.share", ratio(apply_ns, scen ? static_cast<double>(scen->total_ns) : 0.0));
    run.layer("est.windows_without_fix", static_cast<double>(windows_without_fix));
}

void kernel_layers(std::uint64_t events, const Counters& counters, Run& run) {
    run.layer("sim.events", static_cast<double>(events));
    run.layer("sim.peak_pending", static_cast<double>(get(counters, "kernel.events.peak_pending")));
    run.layer("sim.pool_frame_hit_pct", pool_hit_pct(counters, "kernel.pool.frame"));
    run.layer("sim.pool_sensed_hit_pct", pool_hit_pct(counters, "kernel.pool.sensed"));
}

void medium_layers(const mac::Medium::Stats& stats, std::uint64_t rx_delivered, Run& run) {
    const double frames = static_cast<double>(stats.frames_sent);
    const double visited = static_cast<double>(stats.radios_visited);
    run.layer("mac.frames", frames);
    run.layer("mac.visited_per_frame", ratio(visited, frames));
    run.layer("mac.delivered_per_visit", ratio(static_cast<double>(rx_delivered), visited));
}

void index_layers(const mac::Medium& medium, Run& run) {
    run.layer("mac.index_migrations", static_cast<double>(medium.index_stats().migrations));
    const auto& cache = medium.radius_cache_stats();
    run.layer("mac.radius_cache_hit_pct",
              100.0 * ratio(static_cast<double>(cache.hits), static_cast<double>(cache.lookups)));
}

/// est.fix_us.*: exp::measure_fix_cpu_ns for every backend on `config`.
void fix_probes(const core::ScenarioConfig& config, Spans& spans, int root, Run& run) {
    const SpanScope probe(spans, "probe.fix", root);
    for (const est::Backend b : {est::Backend::Grid, est::Backend::Ekf, est::Backend::LinCvx}) {
        const int windows = b == est::Backend::Grid ? 20 : 2000;
        run.layer(std::string("est.fix_us.") + est::to_string(b),
                  exp::measure_fix_cpu_ns(b, config, windows) / 1e3);
    }
}

std::string hexfloat(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// fig7_grid and dense_lincvx: a round is one beacon period T.
void scenario_workload(const core::ScenarioConfig& config, const Options& o, Spans& spans,
                       int root, Run& run) {
    std::unique_ptr<core::Scenario> scenario = set_up_scenario(config, o, spans, root, run);

    obs::Profiler::set_enabled(o.traced());
    core::ScenarioResult result;
    double result_ms = 0.0;
    const auto t0 = Clock::now();
    {
        const SpanScope body(spans, "run", root);
        const sim::TimePoint end = kOrigin + config.duration;
        for (sim::TimePoint t = kOrigin + config.period;; t += config.period) {
            const sim::TimePoint stop = std::min(t, end);
            run.round_ms.push_back(
                timed_ms(spans, "round", body.id(), [&] { scenario->run_until(stop); }));
            if (stop == end) break;
        }
        result_ms = timed_ms(spans, "result", body.id(), [&] { result = scenario->result(); });
    }
    run.run_s = ms_between(t0, Clock::now()) / 1e3;
    obs::Profiler::set_enabled(false);

    std::ostringstream d;
    for (const auto& s : result.avg_error.samples()) {
        d << s.time.to_nanos() << ' ' << hexfloat(s.value) << '\n';
    }
    d << "events " << result.executed_events << "\nfixes " << result.agent_totals.fixes
      << "\nframes " << result.medium_stats.frames_sent << '\n';
    run.digest_text = d.str();

    const double mean_error = result.avg_error.stats().mean();
    run.check(result.executed_events > 0 && result.agent_totals.fixes > 0,
              "scenario ran no events or made no fix");
    run.check(std::isfinite(mean_error) && mean_error >= 0.0 &&
                  mean_error < 2.0 * config.area_side_m,
              "average localization error out of range");

    if (!o.traced()) return;
    const auto profile = obs::Profiler::instance().entries();
    const Counters counters = obs::aggregate_node_counters(result.counters);
    kernel_layers(result.executed_events, counters, run);
    run.layer("core.result_ms", result_ms);
    estimator_layers(profile, counters, result.agent_totals.windows_without_fix, run);
    medium_layers(result.medium_stats, get(counters, "mac.rx_delivered"), run);
    index_layers(scenario->world().medium(), run);
    run.layer("mcast.duplicates_per_delivery",
              ratio(static_cast<double>(result.multicast_stats.data_duplicates),
                    static_cast<double>(result.multicast_stats.data_delivered)));
    scenario.reset();
    fix_probes(config, spans, root, run);
}

/// swarm_16k: a round is one simulated second, ending on the mobility tick.
/// Traced runs split each round just before the tick, so the tick's own cost
/// is bracketed; a bracket counts only if it ran exactly the tick event.
void swarm_workload(const Options& o, Spans& spans, int root, Run& run) {
    const core::SwarmConfig config = swarm_config(o);
    std::unique_ptr<core::Swarm> swarm;
    std::vector<double> build_ms;
    for (int i = 0; i < kSetups; ++i) {
        swarm.reset();
        const SpanScope setup(spans, "setup", root);
        build_ms.push_back(timed_ms(spans, "build", setup.id(),
                                    [&] { swarm = std::make_unique<core::Swarm>(config); }));
        run.setup_s.push_back(build_ms.back() / 1e3);
    }

    std::vector<double> tick_ms;
    int ticks = 0;
    core::SwarmResult result;
    double result_ms = 0.0;
    const auto t0 = Clock::now();
    {
        const SpanScope body(spans, "run", root);
        const sim::TimePoint end = kOrigin + config.duration;
        for (sim::TimePoint t = kOrigin + config.mobility_tick; t <= end;
             t += config.mobility_tick) {
            const SpanScope round(spans, "round", body.id());
            const auto r0 = Clock::now();
            if (o.traced()) {
                swarm->run_until(t - sim::Duration::nanos(1));
                const std::uint64_t before = swarm->simulator().executed_events();
                const double ms =
                    timed_ms(spans, "tick", round.id(), [&] { swarm->run_until(t); });
                ++ticks;
                if (swarm->simulator().executed_events() - before == 1) tick_ms.push_back(ms);
            } else {
                swarm->run_until(t);
            }
            run.round_ms.push_back(ms_between(r0, Clock::now()));
        }
        result_ms = timed_ms(spans, "result", body.id(), [&] { result = swarm->result(); });
    }
    run.run_s = ms_between(t0, Clock::now()) / 1e3;

    std::ostringstream d;
    for (const geom::Vec2& p : result.final_positions) {
        d << hexfloat(p.x) << ' ' << hexfloat(p.y) << '\n';
    }
    const auto& m = result.medium_stats;
    const auto& ix = result.index_stats;
    const auto& rc = result.radius_cache_stats;
    d << "events " << result.executed_events << "\nmedium " << m.frames_sent << ' '
      << m.missed_asleep << ' ' << m.radios_visited << ' ' << m.radios_culled
      << "\ndelivered " << result.frames_delivered << "\nindex " << ix.inserts << ' '
      << ix.removes << ' ' << ix.migrations << ' ' << ix.in_cell_updates << ' '
      << ix.full_refreshes << ' ' << ix.queries << ' ' << ix.candidates_visited << ' '
      << ix.cells_pruned << "\nradius_cache " << rc.lookups << ' ' << rc.hits << ' '
      << rc.misses << ' ' << rc.evictions << ' ' << rc.cells_pruned << ' '
      << rc.sparse_bypass << '\n';
    run.digest_text = d.str();

    run.check(result.executed_events > 0 && m.frames_sent > 0 && result.frames_delivered > 0,
              "swarm sent or delivered no frames");
    for (const geom::Vec2& p : result.final_positions) {
        run.check(p.x >= 0.0 && p.y >= 0.0 && p.x <= result.area_side_m &&
                      p.y <= result.area_side_m,
                  "swarm node left the deployment area");
    }

    if (!o.traced()) return;
    const Counters counters =
        obs::aggregate_node_counters(swarm->world().medium().obs().counters.snapshot());
    kernel_layers(result.executed_events, counters, run);
    {
        // The swarm never calibrates; this times the phy layer on its channel.
        const SpanScope probe(spans, "probe.calibrate", root);
        std::vector<double> calibrate_ms;
        for (int i = 0; i < kSetups; ++i) {
            calibrate_ms.push_back(timed_ms(spans, "calibrate", probe.id(), [&] {
                calibrate(config.channel, phy::CalibrationConfig{}, config.seed);
            }));
        }
        run.layer("phy.calibrate_ms", median(calibrate_ms));
    }
    run.layer("core.build_ms", median(build_ms));
    run.layer("core.result_ms", result_ms);
    run.layer("mobility.tick_ms", median(tick_ms));
    run.layer("mobility.ticks_kept", static_cast<double>(tick_ms.size()));
    run.layer("mobility.ticks", static_cast<double>(ticks));
    medium_layers(m, result.frames_delivered, run);
    index_layers(swarm->world().medium(), run);
}

/// ckpt.*: save / restore of the sweep config's warm prefix, stopped just
/// before its faults strike with an anchor-crash plan armed; median of 20.
void checkpoint_probe(const core::ScenarioConfig& config, const exp::BackendSweepOptions& opts,
                      Spans& spans, int root, Run& run) {
    const SpanScope probe(spans, "probe.ckpt", root);
    const fault::FaultPlan plan = fault::anchor_crash_plan(
        config.num_anchors, opts.crashed_anchors.front(),
        kOrigin + config.duration * opts.fault_at_frac);
    core::Scenario scenario(config);
    fault::FaultInjector injector(scenario, plan);
    injector.arm();
    scenario.run_until(kOrigin + config.duration * opts.fault_at_frac - sim::Duration::nanos(1));

    std::string blob;
    std::vector<double> save_ms;
    std::vector<double> restore_ms;
    for (int i = 0; i < 20; ++i) {
        save_ms.push_back(timed_ms(spans, "ckpt.save", probe.id(), [&] {
            blob = exp::save_scenario_checkpoint(scenario, &injector);
        }));
    }
    for (int i = 0; i < 20; ++i) {
        exp::RestoredScenario restored;
        restore_ms.push_back(timed_ms(spans, "ckpt.restore", probe.id(), [&] {
            restored = exp::restore_scenario_checkpoint(blob, scenario.pdf_table_ptr());
        }));
    }
    run.layer("ckpt.save_ms", median(save_ms));
    run.layer("ckpt.restore_ms", median(restore_ms));
    run.layer("ckpt.blob_kb", static_cast<double>(blob.size()) / 1024.0);
}

/// The sweep's kernel, MAC and estimator counts. run_backend_sweep folds them
/// away, so the traced run replays the same cells through exp::run_sweep, the
/// engine it wraps. A forked cell's counts include its restored prefix, so
/// the totals are those of every cell run straight.
void sweep_count_replay(const core::ScenarioConfig& base, const exp::BackendSweepOptions& opts,
                        int rounds, const std::vector<obs::Profiler::Entry>& profile,
                        Spans& spans, int root, Run& run) {
    const SpanScope probe(spans, "probe.replay", root);
    std::uint64_t events = 0;
    std::uint64_t peak_pending = 0;
    Counters totals;
    mac::Medium::Stats medium;
    double dup = 0.0;
    double delivered = 0.0;
    for (int r = 0; r < rounds; ++r) {
        const core::ScenarioConfig round = sweep_round_config(base, r);
        std::vector<core::ScenarioConfig> configs;
        std::vector<fault::FaultPlan> plans;
        for (const est::Backend backend : opts.backends) {
            for (const auto& named : exp::standard_backend_plans(round, opts)) {
                configs.push_back(round);
                configs.back().estimator = backend;
                plans.push_back(named.second);
            }
        }
        exp::ReplicationOptions ro;
        ro.n_reps = opts.n_reps;
        ro.n_threads = opts.n_threads;
        ro.fork = opts.fork;
        ro.keep_results = true;
        for (const exp::ReplicationSet& set : exp::run_sweep(configs, plans, ro)) {
            for (const core::ScenarioResult& result : set.results) {
                const Counters c = obs::aggregate_node_counters(result.counters);
                for (const auto& [name, value] : c) totals[name] += value;
                peak_pending = std::max(peak_pending, get(c, "kernel.events.peak_pending"));
                events += result.executed_events;
                medium.frames_sent += result.medium_stats.frames_sent;
                medium.radios_visited += result.medium_stats.radios_visited;
                dup += static_cast<double>(result.multicast_stats.data_duplicates);
                delivered += static_cast<double>(result.multicast_stats.data_delivered);
            }
        }
    }
    totals["kernel.events.peak_pending"] = peak_pending;  // a maximum, not a sum
    kernel_layers(events, totals, run);
    estimator_layers(profile, totals, get(totals, "agent.windows_without_fix"), run);
    medium_layers(medium, get(totals, "mac.rx_delivered"), run);
    run.layer("mcast.duplicates_per_delivery", ratio(dup, delivered));
}

/// sweep_fork: exp::run_backend_sweep, one round per call.
void sweep_workload(const Options& o, Spans& spans, int root, Run& run) {
    const core::ScenarioConfig base = sweep_config(o);
    const exp::BackendSweepOptions opts = sweep_options();
    const int rounds = sweep_rounds(o);
    const core::ScenarioConfig prefix = sweep_prefix_config(base, opts);

    // Set-up: the calibrate + build the sweep's first warm prefix pays.
    set_up_scenario(prefix, o, spans, root, run).reset();

    obs::Profiler::set_enabled(o.traced());
    const std::size_t cells_per_round =
        opts.backends.size() * exp::standard_backend_plans(base, opts).size();
    std::ostringstream d;
    const auto t0 = Clock::now();
    {
        const SpanScope body(spans, "run", root);
        for (int r = 0; r < rounds; ++r) {
            const core::ScenarioConfig round = sweep_round_config(base, r);
            std::vector<exp::BackendCell> cells;
            run.round_ms.push_back(timed_ms(spans, "round", body.id(), [&] {
                cells = exp::run_backend_sweep(round, opts);
            }));
            run.check(cells.size() == cells_per_round, "sweep returned the wrong number of cells");
            for (const exp::BackendCell& cell : cells) {
                d << cell.json() << '\n';
                run.check(cell.fixes > 0 && std::isfinite(cell.avg_error_m) &&
                              cell.avg_error_m < 2.0 * base.area_side_m,
                          "sweep cell made no fix or has an out-of-range error");
            }
        }
    }
    run.run_s = ms_between(t0, Clock::now()) / 1e3;
    obs::Profiler::set_enabled(false);
    run.digest_text = d.str();

    if (!o.traced()) return;
    const auto profile = obs::Profiler::instance().entries();
    const auto mean_ms = [&](const char* name) {
        const obs::Profiler::Entry* e = find_entry(profile, name);
        return e && e->calls > 0
                   ? static_cast<double>(e->total_ns) / static_cast<double>(e->calls) / 1e6
                   : 0.0;
    };
    const auto total_ns = [&](const char* name) {
        const obs::Profiler::Entry* e = find_entry(profile, name);
        return e ? static_cast<double>(e->total_ns) : 0.0;
    };
    run.layer("exp.fork_prefix_ms", mean_ms("exp.fork_prefix"));
    run.layer("exp.replication_ms", mean_ms("exp.replication"));
    // Worker time over what the pool could have given: prefixes plus members
    // over n_threads x the sweeps' wall time.
    run.layer("exp.busy_pct",
              100.0 * ratio(total_ns("exp.replication") + total_ns("exp.fork_prefix"),
                            static_cast<double>(opts.n_threads) * total_ns("exp.sweep")));
    sweep_count_replay(base, opts, rounds, profile, spans, root, run);
    checkpoint_probe(prefix, opts, spans, root, run);
    fix_probes(base, spans, root, run);
}

// ---------------------------------------------------------------------------
// Machine stamp, output.
// ---------------------------------------------------------------------------

volatile std::uint64_t g_sink = 0;

/// A fixed integer loop that calls no repository code: a drift indicator for
/// the machine itself. Median of 5.
double machine_ref_ms() {
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (int i = 0; i < 5'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        g_sink = x;
        samples.push_back(ms_between(t0, Clock::now()));
    }
    return median(samples);
}

std::string fnv1a_hex(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string num_list(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ',';
        out += num(v[i]);
    }
    return out + "]";
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_json(const Options& o, const Run& run, double ref_ms) {
    std::ostringstream os;
    os << "{\"workload\":" << quoted(o.workload) << ",\"seed\":" << o.seed
       << ",\"smoke\":" << (o.smoke ? "true" : "false")
       << ",\"traced\":" << (o.traced() ? "true" : "false")
       << ",\"setup_s\":" << num_list(run.setup_s) << ",\"run_s\":" << num(run.run_s)
       << ",\"round_ms\":" << num_list(run.round_ms)
       << ",\"peak_rss_mb\":" << num(peak_rss_mb())
       << ",\"digest\":" << quoted(fnv1a_hex(run.digest_text))
       << ",\"check_error\":" << quoted(run.check_error)
       << ",\"machine\":{\"ref_ms\":" << num(ref_ms)
       << ",\"gridk_isa\":" << quoted(core::gridk::active_isa())
       << ",\"fanout_isa\":" << quoted(mac::fanout::active_isa())
#ifdef __clang__
       << ",\"compiler\":" << quoted(__VERSION__)
#else
       << ",\"compiler\":" << quoted(std::string("gcc ") + __VERSION__)
#endif
       << ",\"build_type\":" << quoted(COCOA_E2E_BUILD_TYPE) << "},\"layers\":{";
    for (std::size_t i = 0; i < run.layers.size(); ++i) {
        os << (i == 0 ? "" : ",") << quoted(run.layers[i].first) << ":"
           << num(run.layers[i].second);
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

Options parse_args(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            o.seed = std::stoull(value());
        } else if (arg == "--trace") {
            o.trace_path = value();
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Options o = parse_args(argc, argv);
        const double ref_ms = machine_ref_ms();
        Spans spans(o.traced());
        Run run;
        {
            const SpanScope root(spans, "workload", -1);
            if (o.workload == "fig7_grid") {
                scenario_workload(fig7_config(o), o, spans, root.id(), run);
            } else if (o.workload == "dense_lincvx") {
                scenario_workload(dense_config(o), o, spans, root.id(), run);
            } else if (o.workload == "swarm_16k") {
                swarm_workload(o, spans, root.id(), run);
            } else if (o.workload == "sweep_fork") {
                sweep_workload(o, spans, root.id(), run);
            } else {
                throw std::invalid_argument("unknown --workload '" + o.workload +
                                            "' (fig7_grid, dense_lincvx, swarm_16k, "
                                            "sweep_fork)");
            }
        }
        if (o.traced()) run.layer("machine.ref_ms", ref_ms);
        print_json(o, run, ref_ms);
        if (o.traced()) {
            std::ofstream out(o.trace_path);
            out << "{\"workload\":" << quoted(o.workload) << ",\"seed\":" << o.seed
                << ",\"spans\":";
            spans.write(out);
            out << "}\n";
            if (!out) throw std::runtime_error("cannot write " + o.trace_path);
        }
        if (!run.check_error.empty()) {
            std::cerr << "cocoa_e2e: output check failed: " << run.check_error << '\n';
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "cocoa_e2e: " << e.what() << '\n';
        return 2;
    }
}
