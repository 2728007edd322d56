// Micro-benchmarks (google-benchmark) for the hot paths of the simulator and
// the localization core, plus one end-to-end fig7 scenario. The custom main
// captures every result and writes the perf-regression artifact BENCH_10.json
// (path override: COCOA_BENCH_JSON) via bench/perf_json.hpp. CI diffs that
// artifact against bench/baseline/BENCH_baseline.json with tools/perf_compare.py.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/perf_json.hpp"
#include "core/bayes_grid.hpp"
#include "core/kernel_cache.hpp"
#include "core/swarm.hpp"
#include "mac/fanout_kernels.hpp"
#include "core/rf_localizer.hpp"
#include "core/scenario.hpp"
#include "est/estimator.hpp"
#include "exp/checkpoint.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sim/checkpoint.hpp"
#include "energy/energy.hpp"
#include "geom/motion.hpp"
#include "mac/medium.hpp"
#include "mac/radio.hpp"
#include "mac/spatial.hpp"
#include "mobility/odometry.hpp"
#include "mobility/waypoint.hpp"
#include "phy/channel.hpp"
#include "phy/pdf_table.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

using namespace cocoa;

namespace {

const phy::PdfTable& shared_table() {
    static const phy::PdfTable table = phy::PdfTable::calibrate(
        phy::Channel{}, {}, sim::RngManager(7).stream("calibration"));
    return table;
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
    sim::EventQueue q;
    sim::RandomStream rng(1);
    std::int64_t t = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            q.schedule(sim::TimePoint::from_nanos(t + rng.uniform_int(0, 1'000'000)),
                       [] {});
            t += 100;
        }
        while (!q.empty()) q.fire_next();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

// ---- event-kernel benchmarks

/// Pure scheduling throughput into a standing queue of `range(0)` events.
void BM_EventQueue_schedule(benchmark::State& state) {
    const int depth = static_cast<int>(state.range(0));
    sim::EventQueue q;
    sim::RandomStream rng(1);
    std::int64_t t = 0;
    for (auto _ : state) {
        for (int i = 0; i < depth; ++i) {
            q.schedule(sim::TimePoint::from_nanos(t + rng.uniform_int(0, 1'000'000)),
                       [] {});
            t += 7;
        }
        while (!q.empty()) q.fire_next();
    }
    state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventQueue_schedule)->Arg(256);

/// Cancel-heavy path: every scheduled event is cancelled before it fires,
/// the way carrier-sense timers are perpetually reset.
void BM_EventQueue_cancel(benchmark::State& state) {
    const int depth = static_cast<int>(state.range(0));
    sim::EventQueue q;
    std::vector<sim::EventId> ids(static_cast<std::size_t>(depth));
    std::int64_t t = 0;
    for (auto _ : state) {
        for (int i = 0; i < depth; ++i) {
            ids[static_cast<std::size_t>(i)] =
                q.schedule(sim::TimePoint::from_nanos(t + 1'000 + i), [] {});
        }
        for (int i = 0; i < depth; ++i) {
            q.cancel(ids[static_cast<std::size_t>(i)]);
        }
        benchmark::DoNotOptimize(q.next_time());
        t += 2'000;
    }
    state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventQueue_cancel)->Arg(256);

/// The acceptance-criteria mix: schedule + cancel + pop churn over a
/// standing working set, the shape MAC backoff/carrier-sense traffic gives
/// the kernel. Each round reschedules a timer (schedule then cancel the
/// stale copy) and fires one event.
void BM_EventQueue_churn(benchmark::State& state) {
    const int working_set = static_cast<int>(state.range(0));
    sim::EventQueue q;
    std::vector<sim::EventId> timers(static_cast<std::size_t>(working_set));
    std::int64_t now = 0;
    // Standing timers the churn perpetually resets.
    for (int i = 0; i < working_set; ++i) {
        timers[static_cast<std::size_t>(i)] =
            q.schedule(sim::TimePoint::from_nanos(1'000'000 + i), [] {});
    }
    std::size_t cursor = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            // Reset one standing timer: cancel the old instance, schedule the
            // replacement further out, fire whatever is due next.
            q.cancel(timers[cursor]);
            now += 50;
            timers[cursor] =
                q.schedule(sim::TimePoint::from_nanos(now + 1'500'000), [] {});
            q.schedule(sim::TimePoint::from_nanos(now + 10), [] {});
            q.fire_next();
            cursor = (cursor + 1) % timers.size();
        }
    }
    state.SetItemsProcessed(state.iterations() * 64 * 3);  // schedule+cancel+pop
}
BENCHMARK(BM_EventQueue_churn)->Arg(256);

// The radial-kernel fast path (blocked SIMD-dispatched kernels) and the
// sqrt+exp reference path, at three grid resolutions (the range arg is the
// cell side in metres). Both include the fused normalize+moments pass, so
// the comparison is pass-for-pass.
void BM_GridApplyConstraint(benchmark::State& state) {
    core::GridConfig cfg;
    cfg.area = geom::Rect::square(200.0);
    cfg.cell_m = static_cast<double>(state.range(0));
    core::BayesGrid grid(cfg);
    const phy::DistancePdf* pdf = shared_table().lookup(-65.0);
    for (auto _ : state) {
        grid.apply_constraint({100.0, 100.0}, *pdf);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(grid.cell_count()));
    state.SetLabel(core::gridk::active_isa());
}
BENCHMARK(BM_GridApplyConstraint)->Arg(1)->Arg(2)->Arg(4);

void BM_GridApplyConstraintExact(benchmark::State& state) {
    core::GridConfig cfg;
    cfg.area = geom::Rect::square(200.0);
    cfg.cell_m = static_cast<double>(state.range(0));
    core::BayesGrid grid(cfg);
    const phy::DistancePdf* pdf = shared_table().lookup(-65.0);
    for (auto _ : state) {
        grid.apply_constraint_exact({100.0, 100.0}, *pdf);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(grid.cell_count()));
}
BENCHMARK(BM_GridApplyConstraintExact)->Arg(1)->Arg(2)->Arg(4);

// Transmission fan-out through the medium at three network sizes, with
// interference culling on (arg 1 == 1) or off. The area grows with the node
// count at constant density, the way production deployments scale, so the
// culled cost per transmission stays bounded while the unculled one grows
// linearly.
void BM_MediumFanout(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const bool culling = state.range(1) != 0;
    const double side = 400.0 * std::sqrt(static_cast<double>(n));

    sim::Simulator sim(7);
    mac::MediumConfig mcfg;
    mcfg.interference_culling = culling;
    mac::Medium medium(sim, phy::Channel{}, mcfg);
    sim::RandomStream place(42);
    std::vector<std::unique_ptr<mac::Radio>> radios;
    radios.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const geom::Vec2 pos{place.uniform(0.0, side), place.uniform(0.0, side)};
        radios.push_back(std::make_unique<mac::Radio>(
            sim, medium, static_cast<net::NodeId>(i), [pos] { return pos; },
            energy::PowerProfile::wavelan(),
            sim.rng().stream("bench.backoff", static_cast<std::uint64_t>(i))));
    }

    net::Packet packet;
    packet.payload_bytes = 24;
    std::size_t sender = 0;
    for (auto _ : state) {
        medium.begin_transmission(*radios[sender], packet, sim::Duration::micros(100));
        sender = (sender + 1) % radios.size();
        // Drain the CCA/rx events and let the frame expire before the next tx.
        sim.run_until(sim.now() + sim::Duration::millis(1));
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.counters["visited_per_tx"] =
        static_cast<double>(medium.stats().radios_visited) /
        static_cast<double>(medium.stats().frames_sent);
}
BENCHMARK(BM_MediumFanout)
    ->ArgsProduct({{64, 256, 1024}, {0, 1}});

// Steady-state beacon traffic through a dense 16-radio cell: after the first
// few frames the AirFrame, sensed_by block, and rx bookkeeping all recycle
// through the medium's slab pools, so per-transmission heap traffic is zero.
// The pool_hit_pct counter is the measured recycle rate over the whole run.
void BM_Medium_FramePool(benchmark::State& state) {
    sim::Simulator sim(7);
    mac::Medium medium(sim, phy::Channel{}, mac::MediumConfig{});
    sim::RandomStream place(42);
    std::vector<std::unique_ptr<mac::Radio>> radios;
    const int n = 16;
    radios.reserve(n);
    for (int i = 0; i < n; ++i) {
        const geom::Vec2 pos{place.uniform(0.0, 50.0), place.uniform(0.0, 50.0)};
        radios.push_back(std::make_unique<mac::Radio>(
            sim, medium, static_cast<net::NodeId>(i), [pos] { return pos; },
            energy::PowerProfile::wavelan(),
            sim.rng().stream("bench.backoff", static_cast<std::uint64_t>(i))));
    }

    net::Packet packet;
    packet.payload_bytes = 24;
    std::size_t sender = 0;
    for (auto _ : state) {
        medium.begin_transmission(*radios[sender], packet, sim::Duration::micros(100));
        sender = (sender + 1) % radios.size();
        sim.run_until(sim.now() + sim::Duration::millis(1));
    }
    state.SetItemsProcessed(state.iterations());
    const sim::PoolStats& frames = medium.frame_pool_stats();
    const double served = static_cast<double>(frames.reused + frames.fresh);
    state.counters["pool_hit_pct"] =
        served > 0.0 ? 100.0 * static_cast<double>(frames.reused) / served : 0.0;
}
BENCHMARK(BM_Medium_FramePool);

// ---- hierarchical spatial index (mac/spatial) benchmarks

/// Incremental mobility updates through the cell tree at fig7 density: every
/// entry random-walks one 1 m step per op, mixing cached-position refreshes
/// (same cell) with cell migrations. migration_pct reports the measured mix.
void BM_CellTree_update(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const double side = std::sqrt(static_cast<double>(n) / (50.0 / 40'000.0));
    mac::spatial::CellTree tree(127.0);
    sim::RandomStream rng(11);
    std::vector<geom::Vec2> pos(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        pos[static_cast<std::size_t>(i)] = {rng.uniform(0.0, side),
                                            rng.uniform(0.0, side)};
        tree.insert(static_cast<std::size_t>(i), pos[static_cast<std::size_t>(i)]);
    }
    std::size_t cursor = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            geom::Vec2& p = pos[cursor];
            p.x += rng.uniform(-1.0, 1.0);
            p.y += rng.uniform(-1.0, 1.0);
            tree.update(cursor, p);
            cursor = (cursor + 1) % pos.size();
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
    const mac::spatial::CellTreeStats& stats = tree.stats();
    const double updates = static_cast<double>(stats.migrations +
                                               stats.in_cell_updates);
    state.counters["migration_pct"] =
        updates > 0.0 ? 100.0 * static_cast<double>(stats.migrations) / updates
                      : 0.0;
}
BENCHMARK(BM_CellTree_update)->Arg(1024)->Arg(16384);

/// Range queries through the cell tree at fig7 density and the swarm family's
/// 127 m influence radius: the visited set is O(neighbors) regardless of n,
/// so ns/op should be flat across the two sizes.
void BM_CellTree_query(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const double side = std::sqrt(static_cast<double>(n) / (50.0 / 40'000.0));
    mac::spatial::CellTree tree(127.0);
    sim::RandomStream rng(12);
    for (int i = 0; i < n; ++i) {
        tree.insert(static_cast<std::size_t>(i),
                    {rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    for (auto _ : state) {
        const geom::Vec2 center{rng.uniform(0.0, side), rng.uniform(0.0, side)};
        // The per-candidate barrier keeps the visit from being hollowed out;
        // the hit count comes from the tree's own stats rather than a
        // lambda-captured counter (gcc 12 -O3 loses captured increments in
        // this shape — harmless here, but it would garble the counter).
        tree.for_each_in_radius(center, 126.0,
                                [](std::size_t id, const geom::Vec2& p) {
                                    benchmark::DoNotOptimize(id);
                                    benchmark::DoNotOptimize(p.x);
                                });
    }
    state.SetItemsProcessed(state.iterations());
    const mac::spatial::CellTreeStats& stats = tree.stats();
    state.counters["hits_per_query"] =
        static_cast<double>(stats.candidates_visited) /
        static_cast<double>(std::max<std::uint64_t>(1, stats.queries));
}
BENCHMARK(BM_CellTree_query)->Arg(1024)->Arg(16384);

/// A medium with `n` radios placed uniformly on a `side`-metre square, all
/// awake, transmitting in turn; with `walk`, each radio takes a random-walk
/// step (and notifies the medium) before its turn, the way the swarm family
/// drives the index.
class FanoutRig {
  public:
    FanoutRig(int n, double side, const phy::ChannelConfig& channel, bool walk)
        : medium_(sim_, phy::Channel{channel}), walk_(walk) {
        sim::RandomStream place(42);
        pos_.resize(static_cast<std::size_t>(n));
        radios_.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            pos_[static_cast<std::size_t>(i)] = {place.uniform(0.0, side),
                                                 place.uniform(0.0, side)};
            const geom::Vec2* p = &pos_[static_cast<std::size_t>(i)];
            radios_.push_back(std::make_unique<mac::Radio>(
                sim_, medium_, static_cast<net::NodeId>(i), [p] { return *p; },
                energy::PowerProfile::wavelan(),
                sim_.rng().stream("bench.backoff", static_cast<std::uint64_t>(i))));
        }
        packet_.payload_bytes = 24;
    }
    // The radios hold the medium, the simulator and their position slots.
    FanoutRig(const FanoutRig&) = delete;
    FanoutRig& operator=(const FanoutRig&) = delete;

    /// The next radio's transmission, after its walk step; drains the CCA
    /// and rx events and lets the frame expire.
    void transmit() {
        if (walk_) {
            geom::Vec2& p = pos_[sender_];
            p.x += steps_.uniform(-1.0, 1.0);
            p.y += steps_.uniform(-1.0, 1.0);
            medium_.note_position_moved(*radios_[sender_]);
        }
        medium_.begin_transmission(*radios_[sender_], packet_, sim::Duration::micros(100));
        sender_ = (sender_ + 1) % radios_.size();
        sim_.run_until(sim_.now() + sim::Duration::millis(1));
    }

    const mac::Medium& medium() const { return medium_; }

  private:
    sim::Simulator sim_{7};
    mac::Medium medium_;
    bool walk_;
    std::vector<geom::Vec2> pos_;
    std::vector<std::unique_ptr<mac::Radio>> radios_;
    net::Packet packet_;
    sim::RandomStream steps_{43};
    std::size_t sender_ = 0;
};

/// Lane counters of a fresh rig over a fixed `transmissions`, so they read
/// the same whatever iteration count google-benchmark picked for the timed
/// rig: visited receivers per transmission, and how many the kernel settled
/// from its bounds or drew.
template <typename MakeRig>
void report_lanes(benchmark::State& state, MakeRig make_rig, int transmissions) {
    const std::unique_ptr<FanoutRig> rig = make_rig();
    for (int i = 0; i < transmissions; ++i) rig->transmit();
    const auto frames = static_cast<double>(transmissions);
    const mac::Medium& medium = rig->medium();
    const auto visited = static_cast<double>(medium.stats().radios_visited);
    const auto settled = static_cast<double>(medium.settled_lanes());
    state.counters["visited_per_tx"] = visited / frames;
    state.counters["settled_per_tx"] = settled / frames;
    state.counters["drawn_per_tx"] = (visited - settled) / frames;
}

/// Mobile fan-out at fig7 density on the swarm channel (-5 dBm, ~127 m
/// influence radius): the cell tree absorbs each walk step as an O(1)
/// incremental migration, and most visited receivers settle quiet.
void BM_MediumFanoutMobile(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const double side = std::sqrt(static_cast<double>(n) / (50.0 / 40'000.0));
    phy::ChannelConfig channel;
    channel.tx_power_dbm = -5.0;  // swarm-family influence radius (~127 m)
    const auto make_rig = [&] {
        return std::make_unique<FanoutRig>(n, side, channel, /*walk=*/true);
    };
    const std::unique_ptr<FanoutRig> rig = make_rig();
    for (auto _ : state) rig->transmit();
    state.SetItemsProcessed(state.iterations());
    report_lanes(state, make_rig, 4096);
}
BENCHMARK(BM_MediumFanoutMobile)->Arg(256)->Arg(1024)->Arg(4096);

/// dense_lincvx's fanout shape: 300 awake radios on a 400 m square with the
/// default channel, so every transmission reaches every radio, ~1/3 of the
/// receivers settle from the kernel's bounds and the rest are drawn.
void BM_MediumFanoutDense(benchmark::State& state) {
    const auto make_rig = [] {
        return std::make_unique<FanoutRig>(300, 400.0, phy::ChannelConfig{}, /*walk=*/false);
    };
    const std::unique_ptr<FanoutRig> rig = make_rig();
    for (auto _ : state) rig->transmit();
    state.SetItemsProcessed(state.iterations());
    report_lanes(state, make_rig, 2048);
}
BENCHMARK(BM_MediumFanoutDense);

/// The vectorized fanout on a dense hotspot: mobile fan-out from a small
/// dense cluster ringed by `range(0)` radios that sit inside the sender's 3x3
/// query window but beyond the cull radius — the shape (a swarm core crossing
/// a crowded junction) where the per-transmission cost is the candidate cull
/// itself (the SoA gather + blocked SIMD cull) rather than the per-receiver
/// RSSI draws.
void BM_MediumFanoutMobile_simd(benchmark::State& state) {
    const int ring = static_cast<int>(state.range(0));
    const int cluster = 2;

    sim::Simulator sim(7);
    phy::ChannelConfig chcfg;
    chcfg.tx_power_dbm = -5.0;  // swarm-family influence radius (~127 m)
    mac::Medium medium(sim, phy::Channel{chcfg}, mac::MediumConfig{});
    sim::RandomStream place(42);
    // Interferers on an annulus at ~150 m: inside the window of every cell
    // the cluster wanders through, outside the ~127.6 m cull radius.
    const geom::Vec2 center{64.0, 64.0};
    std::vector<geom::Vec2> pos;
    std::vector<std::unique_ptr<mac::Radio>> radios;
    radios.reserve(static_cast<std::size_t>(ring + cluster));
    pos.reserve(static_cast<std::size_t>(ring + cluster));
    const auto add_radio = [&](geom::Vec2 p0) {
        pos.push_back(p0);
        const geom::Vec2* p = &pos.back();
        const auto id = static_cast<net::NodeId>(radios.size());
        radios.push_back(std::make_unique<mac::Radio>(
            sim, medium, id, [p] { return *p; },
            energy::PowerProfile::wavelan(),
            sim.rng().stream("bench.backoff", static_cast<std::uint64_t>(id))));
        radios.back()->sleep();  // visible to propagation, no rx machinery
    };
    for (int i = 0; i < cluster; ++i) {
        add_radio(center + geom::Vec2{place.uniform(-5.0, 5.0),
                                      place.uniform(-5.0, 5.0)});
    }
    for (int i = 0; i < ring; ++i) {
        const double theta = place.uniform(0.0, 2.0 * 3.14159265358979323846);
        add_radio(center + geom::Vec2::from_heading(theta) *
                               place.uniform(145.0, 155.0));
    }

    net::Packet packet;
    packet.payload_bytes = 24;
    sim::RandomStream walk(43);
    std::size_t sender = 0;
    for (auto _ : state) {
        // Bounded jitter (not a drifting walk): the cluster must stay inside
        // the ring for the whole run.
        pos[sender] = center + geom::Vec2{walk.uniform(-5.0, 5.0),
                                          walk.uniform(-5.0, 5.0)};
        medium.note_position_moved(*radios[sender]);
        medium.begin_transmission(*radios[sender], packet,
                                  sim::Duration::micros(100));
        sender = (sender + 1) % static_cast<std::size_t>(cluster);
        sim.run_until(sim.now() + sim::Duration::millis(1));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["visited_per_tx"] =
        static_cast<double>(medium.stats().radios_visited) /
        static_cast<double>(std::max<std::uint64_t>(1, medium.stats().frames_sent));
    state.SetLabel(mac::fanout::active_isa());
}
BENCHMARK(BM_MediumFanoutMobile_simd)->Arg(4096);

/// Whole swarm runs through the sharded mobility tick (`_serial` = the inline
/// single-thread path). Identical output either way; the ratio is wall-clock
/// only, and on single-core CI runners the two are expected to tie — the pair
/// exists so multi-core machines can read the sharding win from the same
/// artifact.
void swarm_tick(benchmark::State& state, int mobility_threads) {
    core::SwarmConfig cfg;
    cfg.nodes = 1000;
    cfg.seed = 7;
    cfg.duration = sim::Duration::seconds(4.0);
    cfg.mobility_threads = mobility_threads;
    std::uint64_t events = 0;
    for (auto _ : state) {
        const core::SwarmResult r = core::run_swarm(cfg);
        events = r.executed_events;
        benchmark::DoNotOptimize(events);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events));
}
void BM_SwarmTick(benchmark::State& state) {
    swarm_tick(state, -1);  // all hardware threads
}
void BM_SwarmTick_serial(benchmark::State& state) { swarm_tick(state, 0); }
BENCHMARK(BM_SwarmTick)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SwarmTick_serial)->Unit(benchmark::kMillisecond);

void BM_PdfTableLookup(benchmark::State& state) {
    const phy::PdfTable& table = shared_table();
    sim::RandomStream rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(rng.uniform(-95.0, -40.0)));
    }
}
BENCHMARK(BM_PdfTableLookup);

void BM_ChannelSample(benchmark::State& state) {
    const phy::Channel ch;
    sim::RandomStream rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ch.sample_rssi_dbm(rng.uniform(1.0, 160.0), rng));
    }
}
BENCHMARK(BM_ChannelSample);

void BM_LinkLifetime(benchmark::State& state) {
    sim::RandomStream rng(4);
    for (auto _ : state) {
        const geom::MotionState a{{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                                  {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)},
                                  rng.uniform(1.0, 100.0)};
        const geom::MotionState b{{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                                  {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)},
                                  rng.uniform(1.0, 100.0)};
        benchmark::DoNotOptimize(geom::link_lifetime(a, b, 160.0));
    }
}
BENCHMARK(BM_LinkLifetime);

void BM_WaypointAdvance(benchmark::State& state) {
    mobility::WaypointConfig cfg;
    cfg.area = geom::Rect::square(200.0);
    cfg.max_speed = 2.0;
    mobility::WaypointMobility m(cfg, sim::RandomStream(5));
    std::int64_t t_ns = 0;
    for (auto _ : state) {
        t_ns += 500'000'000;  // 0.5 s tick
        benchmark::DoNotOptimize(m.advance_to(sim::TimePoint::from_nanos(t_ns)));
    }
}
BENCHMARK(BM_WaypointAdvance);

void BM_OdometryObserve(benchmark::State& state) {
    mobility::OdometryEstimator odo({}, sim::RandomStream(6));
    odo.reset({100.0, 100.0}, 0.0);
    const mobility::MotionIncrement inc{1.0, 0.01, sim::Duration::seconds(0.5)};
    for (auto _ : state) {
        odo.observe(inc);
    }
    benchmark::DoNotOptimize(odo.position());
}
BENCHMARK(BM_OdometryObserve);

void BM_FullFix25Anchors(benchmark::State& state) {
    core::GridConfig cfg;
    cfg.area = geom::Rect::square(200.0);
    cfg.cell_m = 2.0;
    auto table = std::make_shared<const phy::PdfTable>(shared_table());
    core::RfLocalizer loc(cfg, table);
    const phy::Channel ch;
    sim::RandomStream rng(8);
    std::vector<core::BeaconObservation> obs;
    const geom::Vec2 truth{100.0, 100.0};
    for (int a = 0; a < 25; ++a) {
        const geom::Vec2 anchor{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
        for (int k = 0; k < 3; ++k) {
            const double rssi = ch.sample_rssi_dbm(geom::distance(anchor, truth), rng);
            if (rssi >= ch.config().rx_sensitivity_dbm) obs.push_back({anchor, rssi});
        }
    }
    // The first fix builds the radial kernels of its bins; build them here,
    // untimed, so ns/op does not depend on the iteration count.
    benchmark::DoNotOptimize(loc.compute_fix(obs));
    for (auto _ : state) {
        benchmark::DoNotOptimize(loc.compute_fix(obs));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(obs.size()));
    state.SetLabel(core::gridk::active_isa());
}
BENCHMARK(BM_FullFix25Anchors);

// The in-situ access pattern BM_GridApplyConstraint hides: a fig7 scenario
// keeps one grid per robot (50), and beacons land in every usable bin of the
// PDF table, not just one. The 50 localizers' grids share one KernelCache the
// way a Scenario's do, so once every bin's kernel exists a fix is pure grid
// work. One op is one 3-beacon fix (the paper's k = 3) by the next localizer
// in turn, on the next three bins of the cycle.
void BM_FixRotatingBins(benchmark::State& state) {
    constexpr int kRobots = 50;
    constexpr int kBeaconsPerFix = 3;
    const auto table = std::make_shared<const phy::PdfTable>(shared_table());
    std::vector<double> bin_rssi;
    for (int rssi = table->min_rssi_dbm(); rssi <= table->max_rssi_dbm(); ++rssi) {
        if (table->lookup(rssi) != nullptr) bin_rssi.push_back(rssi);
    }
    core::GridConfig cfg;
    cfg.area = geom::Rect::square(200.0);
    cfg.cell_m = 2.0;
    cfg.kernels = std::make_shared<core::KernelCache>();
    std::vector<core::RfLocalizer> robots;
    robots.reserve(kRobots);
    for (int r = 0; r < kRobots; ++r) robots.emplace_back(cfg, table);

    sim::RandomStream rng(9);
    std::vector<core::BeaconObservation> window(kBeaconsPerFix);
    std::size_t robot = 0;
    std::size_t bin = 0;
    const auto fix = [&] {
        for (core::BeaconObservation& b : window) {
            b.anchor_position = {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
            b.rssi_dbm = bin_rssi[bin];
            bin = (bin + 1) % bin_rssi.size();
        }
        benchmark::DoNotOptimize(robots[robot].compute_fix(window));
        robot = (robot + 1) % robots.size();
    };
    // Warm-up: one full cycle of bins, so the timed loop sees the steady
    // state of a long run rather than the first round's kernel builds.
    for (std::size_t i = 0; i < bin_rssi.size(); ++i) fix();
    for (auto _ : state) fix();
    state.SetItemsProcessed(state.iterations() * kBeaconsPerFix);
    state.counters["bins"] = static_cast<double>(bin_rssi.size());
    state.SetLabel(core::gridk::active_isa());
}
BENCHMARK(BM_FixRotatingBins);

// One window-end fix through the est::Estimator interface, per backend: the
// accuracy/CPU trade-off's denominator. Same 25-anchor window as
// BM_FullFix25Anchors; grid pays the Bayesian fold, EKF-CL and LinCvx a
// handful of multiply-adds.
void estimator_fix_bench(benchmark::State& state, est::Backend backend) {
    const core::ScenarioConfig scenario;  // the paper's grid and tuning
    core::GridConfig grid;
    grid.area = geom::Rect::square(scenario.area_side_m);
    grid.cell_m = scenario.cell_m;
    grid.floor_fraction = scenario.floor_fraction;
    auto table = std::make_shared<const phy::PdfTable>(shared_table());
    mobility::OdometryEstimator odometry({}, sim::RandomStream(8));
    odometry.reset(grid.area.center(), 0.0);
    const std::unique_ptr<est::Estimator> estimator =
        est::make_estimator(backend, scenario.tuning, grid, table, &odometry);
    estimator->reset(grid.area.center(), false);

    const phy::Channel ch;
    sim::RandomStream rng(8);
    std::vector<core::BeaconObservation> obs;
    const geom::Vec2 truth{100.0, 100.0};
    for (int a = 0; a < 25; ++a) {
        const geom::Vec2 anchor{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
        for (int k = 0; k < 3; ++k) {
            const double rssi = ch.sample_rssi_dbm(geom::distance(anchor, truth), rng);
            if (rssi >= ch.config().rx_sensitivity_dbm) obs.push_back({anchor, rssi});
        }
    }
    // As in BM_FullFix25Anchors: the grid's first fix builds its kernels.
    if (estimator->collects_window_beacons()) {
        benchmark::DoNotOptimize(estimator->compute_fix(obs));
    }
    for (auto _ : state) {
        estimator->predict({0.1, -0.05}, 1.0);
        if (estimator->collects_window_beacons()) {
            estimator->apply_fix(estimator->compute_fix(obs), 0.0);
        } else {
            for (const core::BeaconObservation& o : obs) estimator->observe_beacon(o);
            benchmark::DoNotOptimize(estimator->end_window());
        }
        benchmark::DoNotOptimize(estimator->estimate());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(obs.size()));
}
void BM_EstimatorFix_grid(benchmark::State& state) {
    estimator_fix_bench(state, est::Backend::Grid);
}
void BM_EstimatorFix_ekf(benchmark::State& state) {
    estimator_fix_bench(state, est::Backend::Ekf);
}
void BM_EstimatorFix_lincvx(benchmark::State& state) {
    estimator_fix_bench(state, est::Backend::LinCvx);
}
BENCHMARK(BM_EstimatorFix_grid);
BENCHMARK(BM_EstimatorFix_ekf);
BENCHMARK(BM_EstimatorFix_lincvx);

// Full checkpoint round-trip on a warm mid-run fig7-scale scenario with an
// armed fault plan: serialize the complete simulation state and rebuild a
// scenario from the blob. The restore half is what every forked sweep cell
// pays instead of re-simulating its warm prefix, so restore ns directly
// bounds the fork win.
void BM_CheckpointSaveRestore(benchmark::State& state) {
    core::ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.num_robots = 20;
    cfg.num_anchors = 12;
    cfg.area_side_m = 150.0;
    cfg.duration = sim::Duration::seconds(300.0);
    cfg.period = sim::Duration::seconds(20.0);
    cfg.window = sim::Duration::seconds(3.0);
    const fault::FaultPlan plan = fault::FaultPlan::parse("crash@200:node=15");

    core::Scenario prefix(cfg);
    fault::FaultInjector injector(prefix, plan);
    injector.arm();
    prefix.run_until(sim::TimePoint::origin() + sim::Duration::seconds(120.0));

    std::size_t blob_bytes = 0;
    for (auto _ : state) {
        const std::string blob = cocoa::exp::save_scenario_checkpoint(prefix, &injector);
        blob_bytes = blob.size();
        cocoa::exp::RestoredScenario restored =
            cocoa::exp::restore_scenario_checkpoint(blob, prefix.pdf_table_ptr());
        benchmark::DoNotOptimize(restored.scenario);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(blob_bytes));
}
BENCHMARK(BM_CheckpointSaveRestore)->Unit(benchmark::kMillisecond);

// The forked sweep's per-cell warm start: build a scenario around a shared
// PDF table and load the shared prefix blob, versus BM_ForkedSweepPrefix_cold
// which re-simulates the same prefix from scratch (what --no-fork pays per
// cell). The cold/warm ratio is the per-cell prefix win; the sweep-level
// speedup is gated end-to-end in CI.
void BM_ForkedSweepPrefix(benchmark::State& state) {
    core::ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.num_robots = 20;
    cfg.num_anchors = 12;
    cfg.area_side_m = 150.0;
    cfg.duration = sim::Duration::seconds(300.0);
    cfg.period = sim::Duration::seconds(20.0);
    cfg.window = sim::Duration::seconds(3.0);

    core::Scenario prefix(cfg);
    prefix.run_until(sim::TimePoint::origin() + sim::Duration::seconds(120.0));
    // Bare scenario section, exactly what run_sweep's prefix phase shares
    // with its forked members (no exp-level header/config framing).
    sim::ckpt::Writer w;
    prefix.save_state(w);
    const std::string blob = w.take();
    const auto table = prefix.pdf_table_ptr();

    for (auto _ : state) {
        core::Scenario cell(cfg, table);
        sim::ckpt::Reader r(blob);
        cell.load_state(r);
        benchmark::DoNotOptimize(cell.simulator().now());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_ForkedSweepPrefix)->Unit(benchmark::kMillisecond);

void BM_ForkedSweepPrefix_cold(benchmark::State& state) {
    core::ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.num_robots = 20;
    cfg.num_anchors = 12;
    cfg.area_side_m = 150.0;
    cfg.duration = sim::Duration::seconds(300.0);
    cfg.period = sim::Duration::seconds(20.0);
    cfg.window = sim::Duration::seconds(3.0);
    for (auto _ : state) {
        core::Scenario cell(cfg);
        cell.run_until(sim::TimePoint::origin() + sim::Duration::seconds(120.0));
        benchmark::DoNotOptimize(cell.simulator().now());
    }
}
BENCHMARK(BM_ForkedSweepPrefix_cold)->Unit(benchmark::kMillisecond);

/// google-benchmark <= 1.7 flags failed runs with `Run::error_occurred`;
/// 1.8+ replaced it with the `Run::skipped` enum. Detect whichever member
/// the headers we are built against provide (system install vs the CI
/// FetchContent fallback).
template <typename R>
auto run_failed(const R& run, int) -> decltype(run.skipped != 0) {
    return run.skipped != 0;
}
template <typename R>
bool run_failed(const R& run, long) {
    return run.error_occurred;
}

/// Forwards to the console reporter for the usual human-readable output
/// while recording every run's ns/op for the JSON artifact. A run reports
/// its time in the bench's display unit (->Unit(...)), so it is converted
/// to nanoseconds before it is stored.
class CaptureReporter : public benchmark::ConsoleReporter {
  public:
    explicit CaptureReporter(bench::PerfJson& out) : out_(out) {}

    void ReportRuns(const std::vector<Run>& runs) override {
        for (const Run& run : runs) {
            if (run_failed(run, 0)) continue;
            const double ns_per_unit = 1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
            out_.add_benchmark(run.benchmark_name(), run.GetAdjustedRealTime() * ns_per_unit);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    bench::PerfJson& out_;
};

/// One full fig7 scenario (the paper's §4 configuration, CoCoA mode), timed
/// wall-clock: the end-to-end number that the micro ns/op figures must
/// ultimately move.
double fig7_scenario_wall_seconds() {
    core::ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.num_robots = 50;
    cfg.num_anchors = 25;
    cfg.area_side_m = 200.0;
    cfg.max_speed = 2.0;
    cfg.duration = sim::Duration::minutes(30);
    cfg.period = sim::Duration::seconds(100.0);
    cfg.window = sim::Duration::seconds(3.0);
    cfg.beacons_per_window = 3;
    const auto t0 = std::chrono::steady_clock::now();
    core::Scenario scenario(cfg);
    scenario.run();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

    bench::PerfJson json;
    CaptureReporter reporter(json);
    benchmark::RunSpecifiedBenchmarks(&reporter);

    std::cout << "\nrunning fig7 scenario (50 robots, 30 simulated minutes)...\n";
    const double wall = fig7_scenario_wall_seconds();
    std::cout << "fig7 scenario wall time: " << wall << " s\n";
    json.add_scenario("fig7_cocoa_50robots_30min", wall);

    const char* override_path = std::getenv("COCOA_BENCH_JSON");
    const std::string path = override_path != nullptr ? override_path : "BENCH_10.json";
    if (!json.write(path)) {
        std::cerr << "failed to write " << path << "\n";
        return 1;
    }
    std::cout << "wrote " << path << "\n";
    benchmark::Shutdown();
    return 0;
}
