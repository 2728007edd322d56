// Determinism gates of the swarm fanout, in-process: every runnable fanout
// kernel against the generic one on edge layouts, the settled and drawn
// verdicts against the exact draw on five channels, the batch path against
// the unculled sweep over whole swarm runs, the sharded mobility tick at
// several worker counts, the radius cache against brute force, and the
// allocation-free steady state of the fanout scratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/swarm.hpp"
#include "mac/fanout_kernels.hpp"
#include "mac/medium.hpp"
#include "mac/radio.hpp"
#include "mac/spatial.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "sim/isa.hpp"
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

/// Forces one fanout instantiation until scope exit so a failing test cannot
/// leak it into later tests (the dispatcher is global).
struct ForceIsaGuard {
    explicit ForceIsaGuard(const char* isa) { sim::isa::force(isa); }
    ~ForceIsaGuard() { sim::isa::force(nullptr); }
};

// --- kernel vs oracle on edge layouts ----------------------------------------

struct KernelOutputs {
    std::size_t kept = 0;
    std::vector<std::uint8_t> keep;
    std::vector<fanout::Verdict> verdict;  ///< kept lanes
    std::vector<double> dq;                ///< kept lanes
    std::vector<double> rssi;              ///< Verdict::kHeard lanes
};

/// Bitwise (not epsilon) equality — the byte-identity contract.
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    if (a.empty()) return;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double))) << what;
}

void expect_same_outputs(const KernelOutputs& a, const KernelOutputs& b) {
    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.keep, b.keep);
    EXPECT_EQ(a.verdict, b.verdict);
    expect_bits_equal(a.dq, b.dq, "dq");
    expect_bits_equal(a.rssi, b.rssi, "rssi");
}

/// Runs cull_and_prepare over `positions` (receiver ids `ids`, by lane) on
/// the instantiation `isa`, and snapshots the per-lane outputs that carry
/// defined values: dq and the verdict on kept lanes, the RSSI on kept lanes
/// the kernel drew as heard.
KernelOutputs run_kernel(const std::vector<Vec2>& positions,
                         const std::vector<std::uint32_t>& ids, Vec2 tx,
                         const fanout::GapTable& gaps, std::uint64_t frame_key,
                         const char* isa, fanout::Batch& batch) {
    ForceIsaGuard guard(isa);
    batch.clear();
    for (std::size_t i = 0; i < positions.size(); ++i) {
        batch.push(static_cast<std::uint32_t>(i), positions[i].x, positions[i].y);
    }
    batch.seal();
    KernelOutputs out;
    out.kept =
        fanout::cull_and_prepare(fanout::make_plan(batch, tx, gaps, ids.data(), frame_key));
    const std::size_t lanes = batch.lanes();
    for (std::size_t l = 0; l < lanes; ++l) {
        out.keep.push_back(batch.keep[l]);
        if (batch.keep[l] == 0) continue;
        out.dq.push_back(batch.dq[l]);
        out.verdict.push_back(batch.verdict[l]);
        if (batch.verdict[l] == fanout::Verdict::kHeard) out.rssi.push_back(batch.rssi_dbm[l]);
    }
    return out;
}

/// The medium's draw for one receiver from exact channel terms at squared
/// distance dq: quiet (nullopt) or the sampled RSSI.
std::optional<double> exact_draw(const phy::Channel& channel, double dq, std::uint64_t key) {
    const double d = std::sqrt(dq);
    sim::SplitMix64 rng(key);
    return channel.sample_rssi_or_quiet(channel.mean_rssi_dbm(d),
                                        channel.shadowing_sigma_db(d),
                                        channel.fade_mean_db(d), rng);
}

/// The full draw, with no quiet shortcut, from the same key.
double full_draw(const phy::Channel& channel, double dq, std::uint64_t key) {
    const double d = std::sqrt(dq);
    sim::SplitMix64 rng(key);
    return channel.sample_rssi_from(channel.mean_rssi_dbm(d), channel.shadowing_sigma_db(d),
                                    channel.fade_mean_db(d), rng);
}

/// The fanout kernel runs on the shared ISA layer: generic always runs, the
/// instantiation the fanout dispatches to is the widest, and a name no build
/// compiles is rejected.
TEST(FanoutKernels, RunnableIsasStartWithGenericAndIncludeTheDispatched) {
    const std::vector<const char*> isas = sim::isa::runnable();
    ASSERT_FALSE(isas.empty());
    EXPECT_STREQ(isas.front(), "generic");
    EXPECT_STREQ(isas.back(), fanout::active_isa());
    EXPECT_THROW(sim::isa::force("sse9"), std::invalid_argument);
}

/// Every candidate count that exercises a distinct lane-tail shape: empty
/// batch, a lone candidate, one block minus one, exactly one block, one over,
/// and a ragged multi-block tail. Every runnable instantiation must match the
/// generic one bit for bit.
TEST(FanoutKernels, SimdMatchesGenericOracleOnEdgeLayouts) {
    const phy::Channel channel{phy::ChannelConfig{.tx_power_dbm = -5.0}};
    const double radius = channel.max_influence_range_m() * (1.0 + 1e-9) + 1e-3;
    const fanout::GapTable gaps(channel, radius * radius);
    const Vec2 tx{13.25, -7.5};
    Simulator sim(424242);
    sim::RandomStream rng = sim.rng().stream("fanout.fuzz");
    fanout::Batch batch;

    for (const std::size_t count : {0u, 1u, 7u, 8u, 9u, 17u, 67u}) {
        SCOPED_TRACE(count);
        std::vector<Vec2> positions;
        std::vector<std::uint32_t> ids;
        for (std::size_t i = 0; i < count; ++i) {
            // Mix of well inside, straddling the radius, and far outside.
            const double r = rng.uniform(0.0, 2.0 * radius);
            const double theta = rng.uniform(0.0, 6.283185307179586);
            positions.push_back(tx + Vec2::from_heading(theta) * r);
            ids.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30)));
        }
        // Pin the boundary exactly once per non-empty layout: a candidate at
        // precisely the cull radius must be kept (the cull keeps <= r2).
        if (count > 0) positions[0] = tx + Vec2{radius, 0.0};
        const std::uint64_t frame_key = sim::splitmix64_mix(count);

        const KernelOutputs generic =
            run_kernel(positions, ids, tx, gaps, frame_key, "generic", batch);
        for (const char* isa : sim::isa::runnable()) {
            SCOPED_TRACE(isa);
            expect_same_outputs(
                generic, run_kernel(positions, ids, tx, gaps, frame_key, isa, batch));
        }

        // And the generic outputs agree with the scalar draw the unculled
        // sweep makes: every settled lane's full draw is unsensed (a step-1
        // lane's draw quiet), every drawn lane has the draw's verdict and
        // bits.
        std::size_t k = 0;
        std::size_t u = 0;
        for (std::size_t i = 0; i < positions.size(); ++i) {
            const bool in = geom::distance_sq(positions[i], tx) <= radius * radius;
            ASSERT_EQ(generic.keep[i] != 0, in) << "candidate " << i;
            if (!in) continue;
            const double dq = geom::distance_sq(positions[i], tx);
            EXPECT_EQ(generic.dq[k], dq);
            const std::uint64_t key = fanout::rssi_key(frame_key, ids[i]);
            const std::optional<double> want = exact_draw(channel, dq, key);
            switch (generic.verdict[k]) {
                case fanout::Verdict::kSettledQuiet:
                    EXPECT_FALSE(want.has_value()) << "candidate " << i;
                    [[fallthrough]];
                case fanout::Verdict::kSettledUnsensed:
                    EXPECT_FALSE(channel.sensed(full_draw(channel, dq, key)))
                        << "candidate " << i;
                    break;
                case fanout::Verdict::kQuiet:
                    EXPECT_FALSE(want.has_value()) << "candidate " << i;
                    break;
                case fanout::Verdict::kHeard:
                    ASSERT_TRUE(want.has_value()) << "candidate " << i;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(*want),
                              std::bit_cast<std::uint64_t>(generic.rssi[u]))
                        << "candidate " << i;
                    ++u;
                    break;
            }
            ++k;
        }
        EXPECT_EQ(k, generic.kept);
        EXPECT_EQ(u, generic.rssi.size());
        // Padding lanes always cull.
        for (std::size_t l = positions.size(); l < generic.keep.size(); ++l) {
            EXPECT_EQ(generic.keep[l], 0) << "padding lane " << l;
        }
    }
}

/// The five channels the randomized kernel tests draw on: the default, the
/// swarm's -5 dBm, a sigma ramp that falls, a zero near sigma (the draw
/// skips the polar pair below the breakpoint) and no fade.
struct FuzzChannel {
    const char* name;
    phy::ChannelConfig config;
};
const FuzzChannel kFuzzChannels[] = {
    {"default", {}},
    {"swarm -5 dBm", {.tx_power_dbm = -5.0}},
    {"sigma near != far",
     {.tx_power_dbm = -5.0, .shadowing_sigma_near_db = 3.0, .shadowing_sigma_far_db = 1.0}},
    {"zero near sigma", {.tx_power_dbm = -5.0, .shadowing_sigma_near_db = 0.0}},
    {"zero fade", {.tx_power_dbm = -5.0, .fade_mean_far_db = 0.0}},
};

/// Runs the kernel over ~10^7 / 5 random (key, squared distance) pairs
/// spread uniformly over `channel`'s cull disc, on every runnable
/// instantiation, and requires each to match the first (generic) bit for
/// bit. Calls check(dq, key, verdict, rssi) for every kept lane of the
/// generic run (rssi is the kernel's value for Verdict::kHeard lanes, 0
/// otherwise).
template <typename Check>
void fuzz_lanes(const phy::Channel& channel, sim::SplitMix64& rng, Check check) {
    constexpr std::size_t kPerBatch = 4096;
    constexpr std::size_t kBatches =
        10'000'000 / (kPerBatch * std::size(kFuzzChannels)) + 1;
    const std::vector<const char*> isas = sim::isa::runnable();
    const double radius = channel.max_influence_range_m() * (1.0 + 1e-9) + 1e-3;
    const fanout::GapTable gaps(channel, radius * radius);
    const Vec2 tx{-41.5, 7.25};
    fanout::Batch batch;
    std::vector<Vec2> positions(kPerBatch);
    std::vector<std::uint32_t> ids(kPerBatch);
    for (std::size_t n = 0; n < kBatches; ++n) {
        for (std::size_t i = 0; i < kPerBatch; ++i) {
            const double r = radius * std::sqrt(rng.canonical());
            const double theta = 6.283185307179586 * rng.canonical();
            positions[i] = tx + Vec2::from_heading(theta) * r;
            ids[i] = static_cast<std::uint32_t>(rng());
        }
        const std::uint64_t frame_key = rng();
        const KernelOutputs out =
            run_kernel(positions, ids, tx, gaps, frame_key, isas.front(), batch);
        for (std::size_t v = 1; v < isas.size(); ++v) {
            SCOPED_TRACE(isas[v]);
            const KernelOutputs other =
                run_kernel(positions, ids, tx, gaps, frame_key, isas[v], batch);
            ASSERT_EQ(out.verdict, other.verdict);
            expect_bits_equal(out.rssi, other.rssi, "rssi");
        }
        std::size_t k = 0;
        std::size_t heard = 0;
        for (std::size_t i = 0; i < kPerBatch; ++i) {
            if (out.keep[i] == 0) continue;
            const fanout::Verdict verdict = out.verdict[k];
            const double rssi = verdict == fanout::Verdict::kHeard ? out.rssi[heard++] : 0.0;
            check(out.dq[k], fanout::rssi_key(frame_key, ids[i]), verdict, rssi);
            ++k;
        }
    }
}

/// The step-1 settle verdict against the exact draw over 10^7 random (key,
/// squared distance) pairs spread uniformly over the cull disc of five
/// channels: every lane step 1 settles has a quiet draw and an unsensed full
/// draw, every runnable instantiation settles the same lanes, and on the
/// swarm channel step 1 settles at least 99% of the lanes whose draw is
/// quiet.
TEST(FanoutKernels, SettledLanesDrawQuietOnEveryChannel) {
    sim::SplitMix64 rng(2026);
    for (const FuzzChannel& c : kFuzzChannels) {
        SCOPED_TRACE(c.name);
        const phy::Channel channel{c.config};
        std::uint64_t lanes = 0, quiet = 0, settled = 0;
        fuzz_lanes(channel, rng,
                   [&](double dq, std::uint64_t key, fanout::Verdict verdict, double) {
                       const bool is_quiet = !exact_draw(channel, dq, key).has_value();
                       ++lanes;
                       quiet += is_quiet;
                       if (verdict == fanout::Verdict::kSettledQuiet) {
                           ++settled;
                           ASSERT_TRUE(is_quiet) << "dq=" << dq << " key=" << key;
                           ASSERT_FALSE(channel.sensed(full_draw(channel, dq, key)))
                               << "dq=" << dq << " key=" << key;
                       }
                   });
        EXPECT_GT(lanes, 1'900'000u);
        EXPECT_GT(settled, 0u);
        if (std::string(c.name) == "swarm -5 dBm") {
            EXPECT_GE(static_cast<double>(settled), 0.99 * static_cast<double>(quiet))
                << settled << " of " << quiet << " quiet lanes settled";
        }
    }
}

/// Every other verdict against the exact draw, over 10^7 more random (key,
/// squared distance) pairs on the same five channels: every lane step 2
/// settles has an unsensed full draw, every drawn lane has
/// sample_rssi_or_quiet's verdict and RSSI bit for bit, and every runnable
/// instantiation agrees. On the default channel (dense_lincvx's) step 2
/// must keep settling its share of the lanes.
TEST(FanoutKernels, DrawnLanesMatchTheScalarDrawOnEveryChannel) {
    sim::SplitMix64 rng(2027);
    for (const FuzzChannel& c : kFuzzChannels) {
        SCOPED_TRACE(c.name);
        const phy::Channel channel{c.config};
        std::uint64_t lanes = 0, unsensed = 0, drawn = 0;
        fuzz_lanes(channel, rng,
                   [&](double dq, std::uint64_t key, fanout::Verdict verdict, double rssi) {
                       ++lanes;
                       if (verdict == fanout::Verdict::kSettledQuiet ||
                           verdict == fanout::Verdict::kSettledUnsensed) {
                           unsensed += verdict == fanout::Verdict::kSettledUnsensed;
                           ASSERT_FALSE(channel.sensed(full_draw(channel, dq, key)))
                               << "dq=" << dq << " key=" << key;
                           return;
                       }
                       ++drawn;
                       const std::optional<double> want = exact_draw(channel, dq, key);
                       ASSERT_EQ(want.has_value(), verdict == fanout::Verdict::kHeard)
                           << "dq=" << dq << " key=" << key;
                       if (want) {
                           ASSERT_EQ(std::bit_cast<std::uint64_t>(*want),
                                     std::bit_cast<std::uint64_t>(rssi))
                               << "dq=" << dq << " key=" << key;
                       }
                   });
        EXPECT_GT(lanes, 1'900'000u);
        EXPECT_GT(drawn, 0u);
        if (std::string(c.name) == "default") {
            // 110,103 of 2,002,944 lanes (5.50%) when this floor was set.
            EXPECT_GE(static_cast<double>(unsensed), 0.05 * static_cast<double>(lanes))
                << unsensed << " of " << lanes << " lanes settled by step 2";
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

/// The batch+cache path matches the unculled sweep over every radio, run
/// for run, inline and under the sharded tick.
TEST(ParallelSwarm, BackendsStayIdenticalUnderShardingAndKernels) {
    for (const int threads : {0, 2}) {
        SCOPED_TRACE(threads);
        core::SwarmConfig config = small_swarm();
        config.mobility_threads = threads;
        const core::SwarmResult tree = core::run_swarm(config);
        config.medium.interference_culling = false;
        const core::SwarmResult sweep = core::run_swarm(config);
        EXPECT_EQ(tree.executed_events, sweep.executed_events);
        EXPECT_EQ(tree.medium_stats.frames_sent, sweep.medium_stats.frames_sent);
        EXPECT_EQ(tree.medium_stats.missed_asleep, sweep.medium_stats.missed_asleep);
        EXPECT_EQ(tree.frames_delivered, sweep.frames_delivered);
        ASSERT_EQ(tree.final_positions.size(), sweep.final_positions.size());
        for (std::size_t i = 0; i < tree.final_positions.size(); ++i) {
            ASSERT_EQ(tree.final_positions[i], sweep.final_positions[i]) << "node " << i;
        }
        // The batch run leaned on the radius cache: dense center tiles
        // consult the LRU, repeated quanta hit, and corner quanta prune whole
        // window cells. The sweep never queries the index.
        EXPECT_GT(tree.radius_cache_stats.lookups, 0u);
        EXPECT_GT(tree.radius_cache_stats.hits, 0u);
        EXPECT_GT(tree.radius_cache_stats.cells_pruned, 0u);
        EXPECT_EQ(tree.radius_cache_stats.hits + tree.radius_cache_stats.misses,
                  tree.radius_cache_stats.lookups);
        EXPECT_EQ(sweep.radius_cache_stats.lookups, 0u);
    }
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

/// Where every array of the fanout scratch lives; equal snapshots mean no
/// array was reallocated in between.
std::vector<const void*> scratch_storage(const fanout::Batch& b) {
    return {b.idx.data(),     b.x.data(),        b.y.data(),
            b.keep.data(),    b.dq.data(),       b.verdict.data(),
            b.rssi_dbm.data(), b.kept_lanes.data()};
}

/// S1: the fanout scratch and the pooled sensed/frame blocks are recycled
/// across transmissions — after a warm-up frame, steady-state fanout does not
/// grow or move any batch array (the settle pass's dq and settled arrays
/// included) and pool blocks come off the free lists.
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
    std::vector<const void*> warm_storage;
    sim.schedule_at(TimePoint::from_seconds(1.0),
                    [&] { radios[0]->send(test_packet(0)); });
    sim.schedule_at(TimePoint::from_seconds(2.0), [&] {
        warm_capacity = medium.fanout_scratch().capacity();
        warm_storage = scratch_storage(medium.fanout_scratch());
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
    EXPECT_EQ(scratch_storage(medium.fanout_scratch()), warm_storage);
    EXPECT_GT(medium.stats().frames_sent, 20u);
    // The 100 m grid spans the -5 dBm carrier-sense range (~35 m), so the
    // settle pass ran on these frames.
    EXPECT_GT(medium.settled_lanes(), 0u);
    // Pooled frame + sensed blocks recycle too (the PR 5 contract, preserved
    // through the fanout restructure).
    EXPECT_GT(medium.frame_pool_stats().reused, 0u);
    EXPECT_GT(medium.sensed_pool_stats().reused, 0u);
}

}  // namespace
}  // namespace cocoa::mac
