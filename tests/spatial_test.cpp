#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/swarm.hpp"
#include "exp/replication.hpp"
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
using spatial::CellTree;

// --- CellTree unit behaviour ------------------------------------------------

TEST(CellTree, InsertQueryRemove) {
    CellTree tree(10.0);
    EXPECT_EQ(tree.size(), 0u);
    tree.insert(0, {1.0, 1.0});
    tree.insert(1, {5.0, 5.0});
    tree.insert(2, {25.0, 25.0});  // two cells away: outside a r=8 query at origin
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_TRUE(tree.contains(1));
    EXPECT_FALSE(tree.contains(7));

    std::vector<std::uint32_t> hits;
    tree.for_each_in_radius({0.0, 0.0}, 8.0, [&](std::uint32_t id, Vec2 pos) {
        if (geom::distance({0.0, 0.0}, pos) <= 8.0) hits.push_back(id);
    });
    std::sort(hits.begin(), hits.end());
    EXPECT_EQ(hits, (std::vector<std::uint32_t>{0, 1}));

    tree.remove(1);
    EXPECT_FALSE(tree.contains(1));
    EXPECT_EQ(tree.size(), 2u);
    tree.remove(1);  // double-remove is a no-op
    EXPECT_EQ(tree.size(), 2u);
}

TEST(CellTree, UpdateMigratesOnlyOnBoundaryCrossing) {
    CellTree tree(10.0);
    tree.insert(0, {1.0, 1.0});
    tree.update(0, {2.0, 2.0});  // same cell
    EXPECT_EQ(tree.stats().in_cell_updates, 1u);
    EXPECT_EQ(tree.stats().migrations, 0u);
    EXPECT_EQ(tree.cached_position(0), (Vec2{2.0, 2.0}));

    tree.update(0, {15.0, 2.0});  // crosses a cell boundary
    EXPECT_EQ(tree.stats().migrations, 1u);
    EXPECT_EQ(tree.cached_position(0), (Vec2{15.0, 2.0}));

    tree.update(9, {0.0, 0.0});  // absent id: no-op (detached radios keep moving)
    EXPECT_FALSE(tree.contains(9));
}

TEST(CellTree, EmptyTilesAreReclaimed) {
    CellTree tree(10.0);
    // 8x8 cells per tile and cell side 10: these are three distinct tiles.
    tree.insert(0, {5.0, 5.0});
    tree.insert(1, {500.0, 5.0});
    tree.insert(2, {5.0, 500.0});
    EXPECT_EQ(tree.tile_count(), 3u);
    // Walk node 1 far away: its old tile must not linger in the sparse hash.
    tree.update(1, {900.0, 900.0});
    EXPECT_EQ(tree.tile_count(), 3u);
    tree.remove(2);
    EXPECT_EQ(tree.tile_count(), 2u);
    tree.remove(0);
    tree.remove(1);
    EXPECT_EQ(tree.tile_count(), 0u);
    EXPECT_EQ(tree.size(), 0u);
}

/// Randomized equivalence against a brute-force position map: a long mixed
/// stream of insert / remove / boundary-crossing updates / power-style
/// detach+reattach, with every query checked id-for-id. Negative coordinates
/// included on purpose (arithmetic-shift tile math).
TEST(CellTree, RandomizedEquivalenceVsBruteForce) {
    const double cell = 37.0;
    CellTree tree(cell);
    std::map<std::uint32_t, Vec2> oracle;  // id -> live position
    Simulator sim(1234);
    sim::RandomStream rng = sim.rng().stream("spatial.fuzz");

    const auto random_pos = [&rng] {
        return Vec2{rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
    };

    constexpr std::uint32_t kIds = 200;
    for (int step = 0; step < 5000; ++step) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIds - 1));
        switch (rng.uniform_int(0, 3)) {
            case 0:  // (re)insert — models attach and power_on
                if (oracle.find(id) == oracle.end()) {
                    const Vec2 p = random_pos();
                    tree.insert(id, p);
                    oracle[id] = p;
                }
                break;
            case 1:  // remove — models power_off / outage detach
                tree.remove(id);
                oracle.erase(id);
                break;
            case 2: {  // move (both small in-cell steps and wild jumps)
                if (oracle.find(id) != oracle.end()) {
                    Vec2 p = oracle[id];
                    if (rng.chance(0.5)) {
                        p.x += rng.uniform(-3.0, 3.0);
                        p.y += rng.uniform(-3.0, 3.0);
                    } else {
                        p = random_pos();
                    }
                    tree.update(id, p);
                    oracle[id] = p;
                }
                break;
            }
            default: {  // query with an exact radius filter
                const Vec2 center = random_pos();
                const double radius = rng.uniform(0.0, cell);
                std::vector<std::uint32_t> got;
                tree.for_each_in_radius(center, radius, [&](std::uint32_t i, Vec2 p) {
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
        ASSERT_EQ(tree.size(), oracle.size());
    }
    EXPECT_GT(tree.stats().migrations, 0u);
    EXPECT_GT(tree.stats().in_cell_updates, 0u);
    EXPECT_EQ(tree.stats().full_refreshes, 0u);
}

// --- Medium integration -----------------------------------------------------

Packet test_packet(std::uint64_t value = 0) {
    Packet p;
    p.port = Port::Test;
    p.payload_bytes = 24;
    p.payload = TestPayload{value};
    return p;
}

phy::Channel quiet_channel() {
    phy::ChannelConfig c;
    c.shadowing_sigma_near_db = 0.0;
    c.shadowing_sigma_far_db = 0.0;
    c.fade_mean_far_db = 0.0;
    return phy::Channel{c};
}

/// A medium plus statically-placed radios.
class SpatialMediumFixture : public ::testing::Test {
  protected:
    SpatialMediumFixture() : sim_(99), channel_(quiet_channel()) {
        medium_.emplace(sim_, channel_);
    }

    Radio& add_radio(Vec2 position) {
        const auto id = static_cast<net::NodeId>(radios_.size());
        radios_.push_back(std::make_unique<Radio>(
            sim_, *medium_, id, [position] { return position; },
            PowerProfile::wavelan(), sim_.rng().stream("backoff", id)));
        return *radios_.back();
    }

    Simulator sim_;
    phy::Channel channel_;
    std::optional<Medium> medium_;
    std::vector<std::unique_ptr<Radio>> radios_;
};

/// Powered-off and in-outage radios cost the fan-out nothing (they are not
/// visited, draw no RSSI, and never count as missed_asleep), while ordinary
/// sleepers stay visible to propagation.
TEST(SpatialMedium, DetachedRadiosAreInvisibleToPropagationHierarchical) {
    Simulator sim(99);
    const phy::Channel channel = quiet_channel();
    Medium medium(sim, channel);
    std::vector<std::unique_ptr<Radio>> radios;
    const auto add = [&](Vec2 position) -> Radio& {
        const auto id = static_cast<net::NodeId>(radios.size());
        radios.push_back(std::make_unique<Radio>(
            sim, medium, id, [position] { return position; },
            PowerProfile::wavelan(), sim.rng().stream("backoff", id)));
        return *radios.back();
    };

    Radio& tx = add({0.0, 0.0});
    Radio& off = add({10.0, 0.0});
    Radio& outage = add({0.0, 10.0});
    Radio& sleeper = add({10.0, 10.0});
    Radio& awake = add({20.0, 0.0});
    int delivered = 0;
    awake.set_receive_handler([&](const Packet&, const net::RxInfo&) { ++delivered; });

    sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
        off.power_off();
        outage.begin_outage();
        sleeper.sleep();
        tx.send(test_packet(1));
    });
    sim.run();

    EXPECT_EQ(delivered, 1);
    // Only the sleeper and the awake receiver were visited; the frame
    // was decodable at the sleeper, so exactly one missed_asleep.
    EXPECT_EQ(medium.stats().radios_visited, 2u);
    EXPECT_EQ(medium.stats().radios_culled, 2u);
    EXPECT_EQ(medium.stats().missed_asleep, 1u);
    EXPECT_EQ(off.stats().rx_delivered, 0u);
}

/// A radio that comes back (power_on / end_outage) re-enters the index at
/// its current position and receives again.
TEST_F(SpatialMediumFixture, RevivedRadiosReenterTheIndex) {
    Radio& tx = add_radio({0.0, 0.0});
    Radio& rx = add_radio({15.0, 0.0});
    int delivered = 0;
    rx.set_receive_handler([&](const Packet&, const net::RxInfo&) { ++delivered; });

    sim_.schedule_at(TimePoint::from_seconds(1.0), [&] { rx.power_off(); });
    sim_.schedule_at(TimePoint::from_seconds(2.0), [&] { tx.send(test_packet(1)); });
    sim_.schedule_at(TimePoint::from_seconds(3.0), [&] { rx.power_on(); });
    sim_.schedule_at(TimePoint::from_seconds(4.0), [&] { tx.send(test_packet(2)); });
    // A second power cycle must be idempotent bookkeeping (no double insert).
    sim_.schedule_at(TimePoint::from_seconds(5.0), [&] {
        rx.begin_outage();
        rx.end_outage();
    });
    sim_.schedule_at(TimePoint::from_seconds(6.0), [&] { tx.send(test_packet(3)); });
    sim_.run();

    EXPECT_EQ(delivered, 2);  // frames 2 and 3
    EXPECT_EQ(medium_->index_stats().inserts, 4u);   // 2 attach + 2 revive
    EXPECT_EQ(medium_->index_stats().removes, 2u);   // power_off + outage
}

/// The bulk note_positions_moved() fallback still works under the cell tree:
/// one full refresh, then correct delivery from the new position.
TEST_F(SpatialMediumFixture, BulkInvalidationTriggersExactlyOneRefresh) {
    auto tx_pos = std::make_shared<Vec2>(Vec2{0.0, 0.0});
    const auto id = static_cast<net::NodeId>(radios_.size());
    radios_.push_back(std::make_unique<Radio>(
        sim_, *medium_, id, [tx_pos] { return *tx_pos; }, PowerProfile::wavelan(),
        sim_.rng().stream("backoff", id)));
    Radio& tx = *radios_.back();
    Radio& rx = add_radio({1000.0, 0.0});  // out of range of the origin
    int delivered = 0;
    rx.set_receive_handler([&](const Packet&, const net::RxInfo&) { ++delivered; });

    sim_.schedule_at(TimePoint::from_seconds(1.0), [&] {
        *tx_pos = {980.0, 0.0};  // teleport next to the receiver
        medium_->note_positions_moved();
        tx.send(test_packet(7));
    });
    sim_.run();

    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(medium_->index_stats().full_refreshes, 1u);
}

/// Duplicate note_position_moved calls within one simulation instant are
/// coalesced: a radio's position changes at most once per instant, so the
/// index does that radio's update work at most once per timestamp (repeated
/// per-tick notes used to pay an in-cell update each).
TEST_F(SpatialMediumFixture, DuplicateSameInstantNotesCoalesce) {
    auto pos = std::make_shared<Vec2>(Vec2{0.0, 0.0});
    const auto id = static_cast<net::NodeId>(radios_.size());
    radios_.push_back(std::make_unique<Radio>(
        sim_, *medium_, id, [pos] { return *pos; }, PowerProfile::wavelan(),
        sim_.rng().stream("backoff", id)));
    Radio& mover = *radios_.back();
    const auto updates = [this] {
        return medium_->index_stats().in_cell_updates +
               medium_->index_stats().migrations;
    };

    sim_.schedule_at(TimePoint::from_seconds(1.0), [&] {
        *pos = {3.0, 0.0};
        medium_->note_position_moved(mover);
        const auto after_first = updates();
        EXPECT_EQ(after_first, 1u);
        medium_->note_position_moved(mover);  // duplicate at the same instant
        EXPECT_EQ(updates(), after_first);
    });
    sim_.schedule_at(TimePoint::from_seconds(2.0), [&] {
        const auto before = updates();
        *pos = {6.0, 0.0};
        medium_->note_position_moved(mover);  // new instant: real work again
        EXPECT_EQ(updates(), before + 1);
    });
    sim_.run();
    EXPECT_EQ(medium_->index_stats().full_refreshes, 0u);
}

// --- Scenario-level guarantees ----------------------------------------------

core::SwarmConfig small_swarm() {
    core::SwarmConfig c;
    c.nodes = 150;
    c.seed = 11;
    c.duration = Duration::seconds(12.0);
    return c;
}

/// The bugfix contract: steady-state simulation traffic performs zero bulk
/// index work — no cell-tree full refreshes — because mobility flows through
/// the incremental note_position_moved path.
TEST(SwarmScenario, SteadyStateDoesZeroFullRebuilds) {
    const core::SwarmResult r = core::run_swarm(small_swarm());
    EXPECT_GT(r.medium_stats.frames_sent, 0u);
    EXPECT_GT(r.frames_delivered, 0u);
    EXPECT_GT(r.index_stats.in_cell_updates + r.index_stats.migrations, 0u);
    EXPECT_EQ(r.index_stats.full_refreshes, 0u);
}

/// Resting robots cost no index traffic: waypoint pauses produce
/// zero-forward increments, and the mobility ticker skips the note for them
/// — so a pause-heavy swarm performs strictly fewer per-radio updates than
/// robots x ticks (the old behaviour's exact count).
TEST(SwarmScenario, RestingRobotsCostNoIndexTraffic) {
    core::SwarmConfig config = small_swarm();
    config.min_speed = config.max_speed = 50.0;  // reach the waypoint fast...
    config.min_pause = config.max_pause = Duration::seconds(5.0);  // ...then rest
    const core::SwarmResult r = core::run_swarm(config);
    const auto ticks = static_cast<std::uint64_t>(r.sim_seconds);  // 1 s mobility tick
    const std::uint64_t updates =
        r.index_stats.in_cell_updates + r.index_stats.migrations;
    EXPECT_GT(updates, 0u);
    EXPECT_LT(updates, static_cast<std::uint64_t>(config.nodes) * ticks);
    EXPECT_EQ(r.index_stats.full_refreshes, 0u);
}

/// The whole swarm scenario is bit-identical between the cell-tree fanout
/// and the brute-force reference, the unculled sweep over every radio.
TEST(SwarmScenario, BackendsProduceIdenticalRuns) {
    core::SwarmConfig config = small_swarm();
    const core::SwarmResult tree = core::run_swarm(config);
    config.medium.interference_culling = false;
    const core::SwarmResult sweep = core::run_swarm(config);

    EXPECT_EQ(tree.executed_events, sweep.executed_events);
    EXPECT_EQ(tree.medium_stats.frames_sent, sweep.medium_stats.frames_sent);
    EXPECT_EQ(tree.medium_stats.missed_asleep, sweep.medium_stats.missed_asleep);
    EXPECT_EQ(tree.frames_delivered, sweep.frames_delivered);
    // And the two really took different paths: the tree culled receivers
    // the sweep visited, and only the tree answered radius queries.
    EXPECT_GT(tree.medium_stats.radios_culled, 0u);
    EXPECT_GT(sweep.medium_stats.radios_visited, tree.medium_stats.radios_visited);
    EXPECT_GT(tree.index_stats.queries, 0u);
    EXPECT_EQ(sweep.index_stats.queries, 0u);
}

/// fig7-shaped (scaled-down) CoCoA runs: every registered counter is
/// identical between the culled fanout and the unculled sweep, at 1 and 4
/// worker threads.
TEST(SwarmScenario, CocoaCountersIdenticalAcrossBackendsAndThreads) {
    core::ScenarioConfig config;
    config.seed = 7;
    config.num_robots = 12;
    config.num_anchors = 6;
    config.area_side_m = 120.0;
    config.duration = sim::Duration::seconds(90.0);
    config.period = sim::Duration::seconds(20.0);
    config.window = sim::Duration::seconds(3.0);

    exp::ReplicationOptions opt;
    opt.n_reps = 2;

    std::map<std::string, std::uint64_t> reference;
    bool first = true;
    for (bool culling : {true, false}) {
        for (int threads : {1, 4}) {
            core::ScenarioConfig c = config;
            c.medium.interference_culling = culling;
            opt.n_threads = threads;
            const exp::ReplicationSet set = exp::run_replications(c, opt);
            ASSERT_FALSE(set.counter_totals.empty());
            if (first) {
                reference = set.counter_totals;
                first = false;
            } else {
                // Identical name sets AND identical values: a path that
                // registered extra counters would break CI's --counters diff.
                EXPECT_EQ(set.counter_totals, reference)
                    << (culling ? "culled" : "unculled") << " @" << threads
                    << " threads";
            }
        }
    }
}

}  // namespace
}  // namespace cocoa::mac
