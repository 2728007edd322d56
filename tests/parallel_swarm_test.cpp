// PR 8's determinism gates, in-process: the vectorized fanout kernels against
// the generic oracle on edge layouts, the Serial (scalar-loop) force path
// against the batch path over whole swarm runs, the sharded mobility tick at
// several worker counts, the radius cache against brute force, and the
// allocation-free steady state of the fanout scratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/swarm.hpp"
#include "mac/fanout_kernels.hpp"
#include "mac/medium.hpp"
#include "mac/radio.hpp"
#include "mac/spatial.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace cocoa::mac {
namespace {

using cocoa::energy::PowerProfile;
using cocoa::geom::Vec2;
using cocoa::net::Packet;
using cocoa::net::Port;
using cocoa::net::TestPayload;
using cocoa::sim::Duration;
using cocoa::sim::Simulator;
using cocoa::sim::TimePoint;

/// Restores the fanout force path on scope exit so a failing test cannot
/// leak Serial/Generic mode into later tests (the dispatcher is global).
struct ForcePathGuard {
    explicit ForcePathGuard(fanout::ForcePath p) { fanout::set_force_path(p); }
    ~ForcePathGuard() { fanout::set_force_path(fanout::ForcePath::None); }
};

// --- kernel vs oracle on edge layouts ----------------------------------------

struct KernelOutputs {
    std::size_t kept = 0;
    std::vector<std::uint8_t> keep;
    std::vector<double> dist, mean, sigma, fade;
};

/// Bitwise (not epsilon) equality — the byte-identity contract.
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    if (a.empty()) return;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double))) << what;
}

/// Runs cull_and_prepare over `positions` under the given force path and
/// snapshots per-lane outputs (kept lanes only carry defined values).
KernelOutputs run_kernel(const std::vector<Vec2>& positions, Vec2 tx, double radius,
                         const phy::Channel& channel, fanout::ForcePath path) {
    ForcePathGuard guard(path);
    fanout::Batch batch;
    for (std::size_t i = 0; i < positions.size(); ++i) {
        batch.push(static_cast<std::uint32_t>(i), positions[i].x, positions[i].y);
    }
    batch.seal();
    KernelOutputs out;
    out.kept = fanout::cull_and_prepare(
        fanout::make_plan(batch, tx, radius * radius, channel));
    const std::size_t lanes = batch.lanes();
    for (std::size_t l = 0; l < lanes; ++l) {
        out.keep.push_back(batch.keep[l]);
        if (batch.keep[l] == 0) continue;
        out.dist.push_back(batch.dist[l]);
        out.mean.push_back(batch.mean_dbm[l]);
        out.sigma.push_back(batch.sigma_db[l]);
        out.fade.push_back(batch.fade_db[l]);
    }
    return out;
}

/// Every candidate count that exercises a distinct lane-tail shape: empty
/// batch, a lone candidate, one block minus one, exactly one block, one over,
/// and a ragged multi-block tail.
TEST(FanoutKernels, SimdMatchesGenericOracleOnEdgeLayouts) {
    const phy::Channel channel{phy::ChannelConfig{.tx_power_dbm = -5.0}};
    const double radius = channel.max_influence_range_m() * (1.0 + 1e-9) + 1e-3;
    const Vec2 tx{13.25, -7.5};
    Simulator sim(424242);
    sim::RandomStream rng = sim.rng().stream("fanout.fuzz");

    for (const std::size_t count : {0u, 1u, 7u, 8u, 9u, 17u}) {
        SCOPED_TRACE(count);
        std::vector<Vec2> positions;
        for (std::size_t i = 0; i < count; ++i) {
            // Mix of well inside, straddling the radius, and far outside.
            const double r = rng.uniform(0.0, 2.0 * radius);
            const double theta = rng.uniform(0.0, 6.283185307179586);
            positions.push_back(tx + Vec2::from_heading(theta) * r);
        }
        // Pin the boundary exactly once per non-empty layout: a candidate at
        // precisely the cull radius must be kept (<= r2, matching the scalar
        // loop's > r2 reject).
        if (count > 0) positions[0] = tx + Vec2{radius, 0.0};

        const KernelOutputs generic =
            run_kernel(positions, tx, radius, channel, fanout::ForcePath::Generic);
        const KernelOutputs active =
            run_kernel(positions, tx, radius, channel, fanout::ForcePath::None);

        EXPECT_EQ(generic.kept, active.kept);
        EXPECT_EQ(generic.keep, active.keep);
        expect_bits_equal(generic.dist, active.dist, "dist");
        expect_bits_equal(generic.mean, active.mean, "mean");
        expect_bits_equal(generic.sigma, active.sigma, "sigma");
        expect_bits_equal(generic.fade, active.fade, "fade");

        // And both agree with the scalar expressions the Serial loop uses.
        std::size_t k = 0;
        for (std::size_t i = 0; i < positions.size(); ++i) {
            const bool in = geom::distance_sq(positions[i], tx) <= radius * radius;
            ASSERT_EQ(generic.keep[i] != 0, in) << "candidate " << i;
            if (!in) continue;
            const double d = geom::distance(positions[i], tx);
            EXPECT_EQ(generic.dist[k], d);
            EXPECT_EQ(generic.mean[k], channel.mean_rssi_dbm(d));
            EXPECT_EQ(generic.sigma[k], channel.shadowing_sigma_db(d));
            EXPECT_EQ(generic.fade[k], channel.fade_mean_db(d));
            ++k;
        }
        // Padding lanes always cull.
        for (std::size_t l = positions.size(); l < generic.keep.size(); ++l) {
            EXPECT_EQ(generic.keep[l], 0) << "padding lane " << l;
        }
    }
}

// --- whole-run identity gates ------------------------------------------------

core::SwarmConfig small_swarm() {
    core::SwarmConfig c;
    c.nodes = 150;
    c.seed = 11;
    c.duration = Duration::seconds(12.0);
    c.collect_final_positions = true;
    return c;
}

void expect_same_run(const core::SwarmResult& a, const core::SwarmResult& b,
                     const char* label) {
    SCOPED_TRACE(label);
    EXPECT_EQ(a.executed_events, b.executed_events);
    EXPECT_EQ(a.medium_stats.frames_sent, b.medium_stats.frames_sent);
    EXPECT_EQ(a.medium_stats.missed_asleep, b.medium_stats.missed_asleep);
    EXPECT_EQ(a.medium_stats.radios_visited, b.medium_stats.radios_visited);
    EXPECT_EQ(a.medium_stats.radios_culled, b.medium_stats.radios_culled);
    EXPECT_EQ(a.frames_delivered, b.frames_delivered);
    EXPECT_EQ(a.index_stats.migrations, b.index_stats.migrations);
    EXPECT_EQ(a.index_stats.in_cell_updates, b.index_stats.in_cell_updates);
    EXPECT_EQ(a.index_stats.full_refreshes, b.index_stats.full_refreshes);
    ASSERT_EQ(a.final_positions.size(), b.final_positions.size());
    for (std::size_t i = 0; i < a.final_positions.size(); ++i) {
        ASSERT_EQ(a.final_positions[i], b.final_positions[i]) << "node " << i;
    }
}

/// Tentpole (a): the sharded mobility tick is byte-identical at any worker
/// count — metrics, index counters and every node's final position.
TEST(ParallelSwarm, ShardedMobilityTickIsByteIdenticalAtAnyWorkerCount) {
    core::SwarmConfig config = small_swarm();
    config.mobility_threads = 0;
    const core::SwarmResult inline_run = core::run_swarm(config);
    EXPECT_GT(inline_run.medium_stats.frames_sent, 0u);
    EXPECT_GT(inline_run.index_stats.migrations +
                  inline_run.index_stats.in_cell_updates,
              0u);
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        config.mobility_threads = threads;
        const core::SwarmResult sharded = core::run_swarm(config);
        expect_same_run(inline_run, sharded, "sharded vs inline");
    }
}

/// Tentpole (b): the vectorized fanout path (batch gather + blocked kernel +
/// radius cache) produces byte-identical swarm runs to the scalar
/// per-candidate loop it replaced (the Serial force path).
TEST(ParallelSwarm, VectorizedFanoutMatchesScalarLoopOverWholeRuns) {
    const core::SwarmConfig config = small_swarm();
    core::SwarmResult scalar;
    {
        ForcePathGuard guard(fanout::ForcePath::Serial);
        scalar = core::run_swarm(config);
    }
    const core::SwarmResult simd = core::run_swarm(config);
    expect_same_run(scalar, simd, "serial vs batch");
    // The Serial run never touched the cache or the batch...
    EXPECT_EQ(scalar.radius_cache_stats.lookups, 0u);
    // ...while the batch run leaned on it: dense center tiles consult the
    // LRU, repeated quanta hit, and corner quanta prune whole window cells.
    EXPECT_GT(simd.radius_cache_stats.lookups, 0u);
    EXPECT_GT(simd.radius_cache_stats.hits, 0u);
    EXPECT_GT(simd.radius_cache_stats.cells_pruned, 0u);
    EXPECT_EQ(simd.radius_cache_stats.hits + simd.radius_cache_stats.misses,
              simd.radius_cache_stats.lookups);
}

/// Tentpole (b+c) x brute force: the batch+cache path also matches the
/// unculled sweep over every radio run for run, and the sharded tick
/// composes with both.
TEST(ParallelSwarm, BackendsStayIdenticalUnderShardingAndKernels) {
    core::SwarmConfig config = small_swarm();
    config.mobility_threads = 2;
    const core::SwarmResult tree = core::run_swarm(config);
    config.medium.interference_culling = false;
    const core::SwarmResult sweep = core::run_swarm(config);
    SCOPED_TRACE("culled vs unculled @2 workers");
    EXPECT_EQ(tree.executed_events, sweep.executed_events);
    EXPECT_EQ(tree.medium_stats.frames_sent, sweep.medium_stats.frames_sent);
    EXPECT_EQ(tree.medium_stats.missed_asleep, sweep.medium_stats.missed_asleep);
    EXPECT_EQ(tree.frames_delivered, sweep.frames_delivered);
    ASSERT_EQ(tree.final_positions.size(), sweep.final_positions.size());
    for (std::size_t i = 0; i < tree.final_positions.size(); ++i) {
        ASSERT_EQ(tree.final_positions[i], sweep.final_positions[i]) << "node " << i;
    }
    // The sweep never queries the index: no cache traffic there.
    EXPECT_EQ(sweep.radius_cache_stats.lookups, 0u);
}

// --- radius cache vs brute force ---------------------------------------------

/// Tentpole (c): randomized CellTree queries *through the radius cache*
/// remain exact — id-for-id equal to a brute-force position map — while the
/// LRU churns (hits, misses, evictions) and the density gate flips between
/// the cached and bypass paths. Debug builds additionally re-verify every
/// pruned cell via the exact-radius oracle assertion inside the query.
TEST(RadiusCache, CachedQueriesStayExactUnderChurn) {
    const double cell = 37.0;
    const double hot_radius = cell * 0.9;
    spatial::CellTree tree(cell);
    spatial::RadiusCache cache;
    // Tiny capacity on purpose: evictions must not corrupt masks.
    cache.configure(cell, hot_radius, 8, 1);
    std::map<std::uint32_t, Vec2> oracle;
    Simulator sim(777);
    sim::RandomStream rng = sim.rng().stream("radius_cache.fuzz");
    const auto random_pos = [&rng] {
        return Vec2{rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
    };
    // A recurring query center: fresh random centers land in a new cell
    // quantum nearly every time, so only revisits exercise the LRU hit path.
    const Vec2 hot_center = random_pos();

    constexpr std::uint32_t kIds = 150;
    for (int step = 0; step < 4000; ++step) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIds - 1));
        switch (rng.uniform_int(0, 2)) {
            case 0:
                if (oracle.find(id) == oracle.end()) {
                    const Vec2 p = random_pos();
                    tree.insert(id, p);
                    oracle[id] = p;
                } else {
                    tree.remove(id);
                    oracle.erase(id);
                }
                break;
            case 1:
                if (oracle.find(id) != oracle.end()) {
                    const Vec2 p = random_pos();
                    tree.update(id, p);
                    oracle[id] = p;
                }
                break;
            default: {
                const Vec2 center = rng.chance(0.4) ? hot_center : random_pos();
                // Mostly the cache's hot radius; sometimes another radius,
                // which handles() rejects into the inline exact path.
                const double radius =
                    rng.chance(0.75) ? hot_radius : rng.uniform(0.0, cell);
                std::vector<std::uint32_t> got;
                tree.for_each_in_radius(
                    center, radius, &cache, [&](std::uint32_t i, Vec2 p) {
                        if (geom::distance(center, p) <= radius) got.push_back(i);
                    });
                std::sort(got.begin(), got.end());
                std::vector<std::uint32_t> want;
                for (const auto& [i, p] : oracle) {
                    if (geom::distance(center, p) <= radius) want.push_back(i);
                }
                ASSERT_EQ(got, want) << "step " << step;
                break;
            }
        }
    }
    const spatial::RadiusCacheStats& s = cache.stats();
    EXPECT_GT(s.lookups, 0u);
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.misses, 0u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_GT(s.cells_pruned, 0u);
    EXPECT_GT(s.sparse_bypass, 0u);  // queries centred on empty tiles
    EXPECT_EQ(s.hits + s.misses, s.lookups);
    EXPECT_LE(cache.size(), 8u);
}

TEST(RadiusCache, ConfigureValidatesGeometry) {
    spatial::RadiusCache cache;
    EXPECT_THROW(cache.configure(10.0, 11.0, 64, 1), std::invalid_argument);
    EXPECT_THROW(cache.configure(0.0, 1.0, 64, 1), std::invalid_argument);
    EXPECT_THROW(cache.configure(10.0, 0.0, 64, 1), std::invalid_argument);
    EXPECT_FALSE(cache.handles(10.0));
    cache.configure(10.0, 10.0, 64, 1);
    EXPECT_TRUE(cache.handles(10.0));
    EXPECT_FALSE(cache.handles(9.0));
}

// --- allocation-free steady state --------------------------------------------

Packet test_packet(std::uint64_t value = 0) {
    Packet p;
    p.port = Port::Test;
    p.payload_bytes = 24;
    p.payload = TestPayload{value};
    return p;
}

/// S1: the fanout scratch and the pooled sensed/frame blocks are recycled
/// across transmissions — after a warm-up frame, steady-state fanout does not
/// grow the batch and pool blocks come off the free lists.
TEST(ParallelSwarm, FanoutScratchStaysAllocationFreeOnceWarm) {
    Simulator sim(5);
    const phy::Channel channel{phy::ChannelConfig{.tx_power_dbm = -5.0}};
    Medium medium(sim, channel, MediumConfig{});
    std::vector<std::unique_ptr<Radio>> radios;
    for (int i = 0; i < 24; ++i) {
        const auto id = static_cast<net::NodeId>(i);
        const Vec2 pos{(i % 6) * 20.0, (i / 6) * 20.0};
        radios.push_back(std::make_unique<Radio>(
            sim, medium, id, [pos] { return pos; }, PowerProfile::wavelan(),
            sim.rng().stream("backoff", id)));
    }

    std::size_t warm_capacity = 0;
    sim.schedule_at(TimePoint::from_seconds(1.0),
                    [&] { radios[0]->send(test_packet(0)); });
    sim.schedule_at(TimePoint::from_seconds(2.0), [&] {
        warm_capacity = medium.fanout_scratch().capacity();
    });
    for (int burst = 0; burst < 40; ++burst) {
        sim.schedule_at(TimePoint::from_seconds(3.0 + burst),
                        [&radios, burst] {
                            radios[static_cast<std::size_t>(burst) % radios.size()]
                                ->send(test_packet(static_cast<std::uint64_t>(burst)));
                        });
    }
    sim.run();

    EXPECT_GT(warm_capacity, 0u);
    EXPECT_EQ(medium.fanout_scratch().capacity(), warm_capacity);
    EXPECT_GT(medium.stats().frames_sent, 20u);
    // Pooled frame + sensed blocks recycle too (the PR 5 contract, preserved
    // through the fanout restructure).
    EXPECT_GT(medium.frame_pool_stats().reused, 0u);
    EXPECT_GT(medium.sensed_pool_stats().reused, 0u);
}

}  // namespace
}  // namespace cocoa::mac
