#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/log.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace cocoa::sim {
namespace {

TEST(Duration, Conversions) {
    EXPECT_EQ(Duration::seconds(1.5).to_nanos(), 1'500'000'000);
    EXPECT_EQ(Duration::millis(2).to_nanos(), 2'000'000);
    EXPECT_EQ(Duration::micros(3).to_nanos(), 3'000);
    EXPECT_DOUBLE_EQ(Duration::seconds(2.5).to_seconds(), 2.5);
    EXPECT_DOUBLE_EQ(Duration::millis(1500).to_seconds(), 1.5);
    EXPECT_DOUBLE_EQ(Duration::minutes(30).to_seconds(), 1800.0);
}

TEST(Duration, Arithmetic) {
    const Duration a = Duration::seconds(2.0);
    const Duration b = Duration::seconds(0.5);
    EXPECT_EQ((a + b).to_seconds(), 2.5);
    EXPECT_EQ((a - b).to_seconds(), 1.5);
    EXPECT_EQ((a * std::int64_t{3}).to_seconds(), 6.0);
    EXPECT_EQ((a / std::int64_t{4}).to_seconds(), 0.5);
    EXPECT_DOUBLE_EQ(a / b, 4.0);
}

TEST(Duration, Comparisons) {
    EXPECT_LT(Duration::seconds(1.0), Duration::seconds(2.0));
    EXPECT_EQ(Duration::seconds(1.0), Duration::millis(1000));
    EXPECT_TRUE(Duration::zero().is_zero());
    EXPECT_TRUE((Duration::zero() - Duration::millis(1)).is_negative());
}

TEST(Duration, RoundsToNearestNanosecond) {
    EXPECT_EQ(Duration::seconds(1e-9).to_nanos(), 1);
    EXPECT_EQ(Duration::seconds(1.4e-9).to_nanos(), 1);
    EXPECT_EQ(Duration::seconds(1.6e-9).to_nanos(), 2);
}

TEST(TimePoint, Arithmetic) {
    const TimePoint t0 = TimePoint::origin();
    const TimePoint t1 = t0 + Duration::seconds(5.0);
    EXPECT_DOUBLE_EQ(t1.to_seconds(), 5.0);
    EXPECT_EQ(t1 - t0, Duration::seconds(5.0));
    EXPECT_EQ(t1 - Duration::seconds(2.0), TimePoint::from_seconds(3.0));
    EXPECT_LT(t0, t1);
}

TEST(TimeStream, Formats) {
    std::ostringstream ss;
    ss << Duration::seconds(1.5) << ' ' << TimePoint::from_seconds(2.0);
    EXPECT_EQ(ss.str(), "1.5s @2s");
}

TEST(RandomStream, UniformBounds) {
    RandomStream rng(42);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 5.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(RandomStream, UniformIntBounds) {
    RandomStream rng(42);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniform_int(0, 7);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 7);
        saw_lo |= v == 0;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RandomStream, GaussianMoments) {
    RandomStream rng(7);
    double sum = 0.0;
    double sum_sq = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const double g = rng.gaussian(10.0, 2.0);
        sum += g;
        sum_sq += g * g;
    }
    const double mean = sum / kN;
    const double var = sum_sq / kN - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RandomStream, ZeroSigmaGaussianIsMean) {
    RandomStream rng(1);
    EXPECT_DOUBLE_EQ(rng.gaussian(3.5, 0.0), 3.5);
}

TEST(RandomStream, ChanceExtremes) {
    RandomStream rng(1);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngManager, SameNameSameStream) {
    const RngManager mgr(123);
    RandomStream a = mgr.stream("mobility");
    RandomStream b = mgr.stream("mobility");
    for (int i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
    }
}

TEST(RngManager, DifferentNamesDiffer) {
    const RngManager mgr(123);
    RandomStream a = mgr.stream("mobility");
    RandomStream b = mgr.stream("phy");
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(RngManager, IndexedStreamsDiffer) {
    const RngManager mgr(9);
    RandomStream a = mgr.stream("odometry", 1);
    RandomStream b = mgr.stream("odometry", 2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(RngManager, SeedChangesStreams) {
    RandomStream a = RngManager(1).stream("x");
    RandomStream b = RngManager(2).stream("x");
    EXPECT_NE(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(EventQueue, FiresInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(TimePoint::from_seconds(3.0), [&] { order.push_back(3); });
    q.schedule(TimePoint::from_seconds(1.0), [&] { order.push_back(1); });
    q.schedule(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
    while (!q.empty()) q.pop().callback();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimes) {
    EventQueue q;
    std::vector<int> order;
    const TimePoint t = TimePoint::from_seconds(1.0);
    for (int i = 0; i < 5; ++i) {
        q.schedule(t, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) q.pop().callback();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
    EventQueue q;
    bool fired = false;
    const EventId id = q.schedule(TimePoint::from_seconds(1.0), [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, DoubleCancelFails) {
    EventQueue q;
    const EventId id = q.schedule(TimePoint::from_seconds(1.0), [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
    EventQueue q;
    const EventId id = q.schedule(TimePoint::from_seconds(1.0), [] {});
    q.pop().callback();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails) {
    EventQueue q;
    EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, StaleCancelDoesNotCorruptCount) {
    EventQueue q;
    const EventId id = q.schedule(TimePoint::from_seconds(1.0), [] {});
    q.schedule(TimePoint::from_seconds(2.0), [] {});
    q.pop();  // fires id
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.size(), 1u);
    q.pop();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
    EventQueue q;
    const EventId id = q.schedule(TimePoint::from_seconds(1.0), [] {});
    q.schedule(TimePoint::from_seconds(2.0), [] {});
    q.cancel(id);
    EXPECT_EQ(q.next_time(), TimePoint::from_seconds(2.0));
}

TEST(EventQueue, PendingReflectsLifecycle) {
    EventQueue q;
    const EventId id = q.schedule(TimePoint::from_seconds(1.0), [] {});
    EXPECT_TRUE(q.pending(id));
    q.cancel(id);
    EXPECT_FALSE(q.pending(id));
}

TEST(EventQueue, ClearDropsEverything) {
    EventQueue q;
    q.schedule(TimePoint::from_seconds(1.0), [] {});
    q.schedule(TimePoint::from_seconds(2.0), [] {});
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_time(), TimePoint::max());
}

TEST(InplaceCallback, SmallCaptureStaysInline) {
    int hits = 0;
    InplaceCallback cb([&hits] { ++hits; });
    EXPECT_TRUE(static_cast<bool>(cb));
    EXPECT_FALSE(cb.on_heap());
    cb();
    EXPECT_EQ(hits, 1);
}

TEST(InplaceCallback, LargeCaptureFallsBackToHeap) {
    std::array<char, 128> big{};
    big[0] = 42;
    char seen = 0;
    InplaceCallback cb([big, &seen] { seen = big[0]; });
    EXPECT_TRUE(cb.on_heap());
    cb();
    EXPECT_EQ(seen, 42);
}

TEST(InplaceCallback, MoveTransfersOwnership) {
    int hits = 0;
    InplaceCallback a([&hits] { ++hits; });
    InplaceCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    b();
    EXPECT_EQ(hits, 1);
    InplaceCallback c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);
}

TEST(InplaceCallback, DestructionReleasesCaptures) {
    auto token = std::make_shared<int>(7);
    {
        InplaceCallback cb([token] { (void)*token; });
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
    // reset() releases too, both for inline and heap storage.
    std::array<char, 128> big{};
    InplaceCallback heap_cb([token, big] { (void)*token; (void)big; });
    EXPECT_EQ(token.use_count(), 2);
    heap_cb.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_FALSE(static_cast<bool>(heap_cb));
}

TEST(InplaceCallback, SharedPtrCaptureFitsInline) {
    // The Medium's CCA callback shape: this + shared_ptr + scalars must stay
    // on the fast path or steady-state traffic allocates per event.
    auto frame = std::make_shared<int>(1);
    const double rssi = -60.0;
    const bool decodable = true;
    const void* self = &rssi;
    InplaceCallback cb([self, frame, rssi, decodable] {
        (void)self; (void)*frame; (void)rssi; (void)decodable;
    });
    EXPECT_FALSE(cb.on_heap());
}

TEST(EventQueue, GenerationReuseSafety) {
    EventQueue q;
    int fired = 0;
    const EventId stale = q.schedule(TimePoint::from_seconds(1.0), [&] { ++fired; });
    q.pop().callback();  // slot freed, generation bumped
    EXPECT_EQ(fired, 1);

    // The next schedule recycles the same slot; the stale id must neither
    // report pending nor cancel the new occupant.
    const EventId fresh = q.schedule(TimePoint::from_seconds(2.0), [&] { ++fired; });
    EXPECT_NE(stale, fresh);
    EXPECT_FALSE(q.pending(stale));
    EXPECT_TRUE(q.pending(fresh));
    EXPECT_FALSE(q.cancel(stale));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(fresh));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdsDieAcrossClear) {
    EventQueue q;
    const EventId before = q.schedule(TimePoint::from_seconds(1.0), [] {});
    q.clear();
    EXPECT_FALSE(q.pending(before));
    EXPECT_FALSE(q.cancel(before));
    // seq keeps counting across clear(), so FIFO order stays monotone for a
    // reused queue (the documented invariant).
    std::vector<int> order;
    const TimePoint t = TimePoint::from_seconds(3.0);
    q.schedule(t, [&] { order.push_back(1); });
    q.schedule(t, [&] { order.push_back(2); });
    while (!q.empty()) q.pop().callback();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, FifoGoldenAtEqualTimesWithCancels) {
    // Golden ordering: three timestamps, ten events each, every third event
    // cancelled. Survivors must fire grouped by time, FIFO within a time.
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 30; ++i) {
        const TimePoint t = TimePoint::from_seconds(1.0 + i % 3);
        ids.push_back(q.schedule(t, [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 30; i += 3) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    while (!q.empty()) q.pop().callback();
    // Survivors grouped by timestamp (i % 3 picks the time), FIFO within.
    std::vector<int> expected;
    for (int t = 0; t < 3; ++t) {
        for (int i = 0; i < 30; ++i) {
            if (i % 3 == t && i % 3 != 0) expected.push_back(i);
        }
    }
    EXPECT_EQ(order, expected);
}

TEST(EventQueue, StatsTrackSchedulingAndCancellation) {
    EventQueue q;
    const EventId a = q.schedule(TimePoint::from_seconds(1.0), [] {});
    q.schedule(TimePoint::from_seconds(2.0), [] {});
    q.schedule(TimePoint::from_seconds(3.0), [] {});
    EXPECT_EQ(q.stats().scheduled, 3u);
    EXPECT_EQ(q.stats().peak_pending, 3u);
    EXPECT_EQ(q.stats().sbo_misses, 0u);
    EXPECT_TRUE(q.cancel(a));
    EXPECT_FALSE(q.cancel(a));
    EXPECT_EQ(q.stats().cancelled, 1u);
    while (!q.empty()) q.pop();
    EXPECT_EQ(q.stats().peak_pending, 3u);  // high-water mark sticks

    std::array<char, 128> big{};
    q.schedule(TimePoint::from_seconds(4.0), [big] { (void)big; });
    EXPECT_EQ(q.stats().sbo_misses, 1u);
}

TEST(EventQueue, SteadyStateChurnRecyclesSlots) {
    // A carrier-sense-like workload: schedule/cancel/fire cycling through a
    // bounded working set must not grow the slot arena past the high-water
    // mark (peak_pending tracks it).
    EventQueue q;
    double t = 1.0;
    std::vector<EventId> live;
    for (int round = 0; round < 1000; ++round) {
        live.push_back(q.schedule(TimePoint::from_seconds(t + 1.0), [] {}));
        live.push_back(q.schedule(TimePoint::from_seconds(t + 2.0), [] {}));
        q.cancel(live[live.size() - 2]);
        if (!q.empty()) {
            q.pop();
            t += 0.5;
        }
    }
    EXPECT_LE(q.stats().peak_pending, 16u);
}

/// Reference model of the event-queue contract, the semantics the original
/// priority-queue-plus-tombstones kernel had: pending events as an ordered
/// set of (time, seq), so pops come out in (time, FIFO) order, a cancel or
/// pending verdict is a set lookup, and KernelStats count what the contract
/// says they count.
struct QueueModel {
    std::set<std::pair<TimePoint, std::uint64_t>> pending;
    std::uint64_t next_seq = 1;
    KernelStats stats;

    std::pair<TimePoint, std::uint64_t> schedule(TimePoint t) {
        const auto key = *pending.emplace(t, next_seq++).first;
        ++stats.scheduled;
        stats.peak_pending = std::max<std::uint64_t>(stats.peak_pending, pending.size());
        return key;
    }
    bool cancel(const std::pair<TimePoint, std::uint64_t>& key) {
        if (pending.erase(key) == 0) return false;
        ++stats.cancelled;
        return true;
    }
    std::pair<TimePoint, std::uint64_t> pop() {
        const auto key = *pending.begin();
        pending.erase(pending.begin());
        return key;
    }
};

/// Randomized schedule/cancel/reschedule stress: the kernel must fire the
/// exact events at the exact times in the exact order the reference model
/// does, and agree with it on every cancel/pending verdict along the way.
TEST(EventQueue, RandomizedStressMatchesLegacyOracle) {
    EventQueue q;
    QueueModel model;
    std::mt19937_64 rng(0xC0C0A5EEDull);

    struct LiveEvent {
        EventId id;
        std::pair<TimePoint, std::uint64_t> key;
    };
    std::vector<LiveEvent> live;
    std::vector<std::uint64_t> fired;  // seqs, in firing order
    TimePoint now = TimePoint::origin();

    const auto schedule_one = [&] {
        // Mix of distinct and colliding times to exercise FIFO tie-breaks.
        const std::int64_t offset_ns = static_cast<std::int64_t>(rng() % 5) * 500'000;
        const TimePoint t = now + Duration::nanos(1 + offset_ns);
        const auto key = model.schedule(t);
        live.push_back({q.schedule(t, [&fired, seq = key.second] { fired.push_back(seq); }),
                        key});
    };
    const auto pop_one = [&] {
        ASSERT_FALSE(model.pending.empty());
        ASSERT_EQ(q.next_time(), model.pending.begin()->first);
        const auto expected = model.pop();
        auto f = q.pop();
        ASSERT_EQ(f.time, expected.first);
        now = f.time;
        f.callback();
        ASSERT_EQ(fired.back(), expected.second);
    };

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t dice = rng() % 10;
        if (dice < 5 || q.empty()) {
            schedule_one();
        } else if (dice < 7 && !live.empty()) {
            const std::size_t pick = rng() % live.size();
            ASSERT_EQ(q.cancel(live[pick].id), model.cancel(live[pick].key))
                << "cancel verdict diverged at op " << op;
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        } else if (dice < 8 && !live.empty()) {
            const std::size_t pick = rng() % live.size();
            ASSERT_EQ(q.pending(live[pick].id), model.pending.contains(live[pick].key));
        } else {
            ASSERT_NO_FATAL_FAILURE(pop_one());
        }
        ASSERT_EQ(q.size(), model.pending.size());
    }
    // Drain the queue and check the full firing history.
    while (!q.empty()) ASSERT_NO_FATAL_FAILURE(pop_one());
    EXPECT_TRUE(model.pending.empty());
    EXPECT_EQ(fired.size(), model.stats.scheduled - model.stats.cancelled);
    EXPECT_EQ(q.stats().scheduled, model.stats.scheduled);
    EXPECT_EQ(q.stats().cancelled, model.stats.cancelled);
    EXPECT_EQ(q.stats().sbo_misses, 0u);  // every callback fits the SBO buffer
    EXPECT_EQ(q.stats().peak_pending, model.stats.peak_pending);
}

TEST(SlabPool, RecyclesBlocksThroughFreeList) {
    // Acquire/release cycles beyond the first must come from the free list.
    // Run under ASan in CI: any use-after-free or mismatched dealloc aborts.
    ObjectPool<std::pair<double, double>> pool;
    for (int round = 0; round < 100; ++round) {
        auto a = pool.acquire(1.0 * round, 2.0 * round);
        auto b = pool.acquire(3.0 * round, 4.0 * round);
        EXPECT_EQ(a->first, 1.0 * round);
        EXPECT_EQ(b->second, 4.0 * round);
    }
    const PoolStats& stats = pool.stats();
    EXPECT_EQ(stats.reused + stats.fresh, 200u);
    EXPECT_EQ(stats.fresh, 2u);  // working set of 2, everything else recycled
    EXPECT_EQ(stats.oversize, 0u);
}

TEST(SlabPool, BlocksOutliveThePool) {
    // The allocator copy inside the shared_ptr control block keeps the core
    // alive: dropping the pool (and the last shared_ptr after it) must be
    // clean under ASan. This is the Scenario teardown order — world (and its
    // pools) dies before the queue drops its frame references.
    std::shared_ptr<std::pair<double, double>> survivor;
    {
        ObjectPool<std::pair<double, double>> pool;
        survivor = pool.acquire(1.5, 2.5);
    }
    EXPECT_EQ(survivor->second, 2.5);
    survivor.reset();
}

TEST(SlabPool, PooledVectorRecyclesConstantSizeBlocks) {
    // The AirFrame::sensed_by shape: same-size vector allocated per frame.
    auto core = std::make_shared<SlabCore>();
    using PooledVec = std::vector<std::uint8_t, PoolAllocator<std::uint8_t>>;
    for (int round = 0; round < 50; ++round) {
        PooledVec v(32, std::uint8_t{0}, PoolAllocator<std::uint8_t>(core));
        v[31] = 9;
        EXPECT_EQ(v[31], 9);
    }
    EXPECT_EQ(core->stats().fresh, 1u);
    EXPECT_EQ(core->stats().reused, 49u);
}

TEST(SlabPool, OversizeRequestsBypassTheFreeList) {
    auto core = std::make_shared<SlabCore>();
    PoolAllocator<std::uint8_t> alloc(core);
    std::uint8_t* small = alloc.allocate(16);  // learns block size 16
    std::uint8_t* big = alloc.allocate(64);    // larger: plain heap
    alloc.deallocate(big, 64);
    alloc.deallocate(small, 16);
    EXPECT_EQ(core->stats().fresh, 1u);
    EXPECT_EQ(core->stats().oversize, 1u);
    // The small block recycles; the oversize one never enters the free list.
    std::uint8_t* again = alloc.allocate(16);
    alloc.deallocate(again, 16);
    EXPECT_EQ(core->stats().reused, 1u);
}

TEST(SlabPool, NullCoreDegradesToPlainNew) {
    PoolAllocator<int> alloc;  // default: no core
    int* p = alloc.allocate(4);
    p[3] = 11;
    EXPECT_EQ(p[3], 11);
    alloc.deallocate(p, 4);
}

TEST(Simulator, NowAdvancesWithEvents) {
    Simulator sim;
    std::vector<double> times;
    sim.schedule_at(TimePoint::from_seconds(1.0), [&] { times.push_back(sim.now().to_seconds()); });
    sim.schedule_at(TimePoint::from_seconds(2.5), [&] { times.push_back(sim.now().to_seconds()); });
    sim.run();
    EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
}

TEST(Simulator, ScheduleInIsRelative) {
    Simulator sim;
    double fired_at = -1.0;
    sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
        sim.schedule_in(Duration::seconds(2.0), [&] { fired_at = sim.now().to_seconds(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
    Simulator sim;
    int count = 0;
    sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++count; });
    sim.schedule_at(TimePoint::from_seconds(5.0), [&] { ++count; });
    sim.run_until(TimePoint::from_seconds(2.0));
    EXPECT_EQ(count, 1);
    EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 2.0);
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run();
    EXPECT_EQ(count, 2);
}

TEST(Simulator, EventAtHorizonFires) {
    Simulator sim;
    bool fired = false;
    sim.schedule_at(TimePoint::from_seconds(2.0), [&] { fired = true; });
    sim.run_until(TimePoint::from_seconds(2.0));
    EXPECT_TRUE(fired);
}

TEST(Simulator, SchedulingInPastThrows) {
    Simulator sim;
    sim.schedule_at(TimePoint::from_seconds(5.0), [&] {
        EXPECT_THROW(sim.schedule_at(TimePoint::from_seconds(1.0), [] {}), std::logic_error);
        EXPECT_THROW(sim.schedule_in(Duration::zero() - Duration::millis(1), [] {}),
                     std::logic_error);
    });
    sim.run();
}

TEST(Simulator, StopHaltsRun) {
    Simulator sim;
    int count = 0;
    for (int i = 1; i <= 10; ++i) {
        sim.schedule_at(TimePoint::from_seconds(i), [&] {
            if (++count == 3) sim.stop();
        });
    }
    sim.run();
    EXPECT_EQ(count, 3);
    EXPECT_EQ(sim.pending_events(), 7u);
}

TEST(Simulator, ExecutedEventsCounts) {
    Simulator sim;
    for (int i = 1; i <= 4; ++i) {
        sim.schedule_at(TimePoint::from_seconds(i), [] {});
    }
    sim.run();
    EXPECT_EQ(sim.executed_events(), 4u);
}

TEST(Simulator, CancelledEventDoesNotFire) {
    Simulator sim;
    bool fired = false;
    const EventId id = sim.schedule_at(TimePoint::from_seconds(1.0), [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Logger, RespectsLevel) {
    Logger& logger = Logger::instance();
    std::ostringstream sink;
    logger.set_sink(&sink);
    logger.set_level(LogLevel::Warn);
    log_if(LogLevel::Debug, TimePoint::from_seconds(1.0), "test", [] { return "hidden"; });
    log_if(LogLevel::Error, TimePoint::from_seconds(2.0), "test", [] { return "shown"; });
    logger.set_sink(nullptr);
    EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
    EXPECT_NE(sink.str().find("shown"), std::string::npos);
    EXPECT_NE(sink.str().find("test"), std::string::npos);
}

TEST(Logger, OffSilencesEverything) {
    Logger& logger = Logger::instance();
    std::ostringstream sink;
    logger.set_sink(&sink);
    logger.set_level(LogLevel::Off);
    log_if(LogLevel::Error, TimePoint::origin(), "x", [] { return "nope"; });
    logger.set_sink(nullptr);
    logger.set_level(LogLevel::Warn);
    EXPECT_TRUE(sink.str().empty());
}

}  // namespace
}  // namespace cocoa::sim
