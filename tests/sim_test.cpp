#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/checkpoint.hpp"
#include "sim/event_queue.hpp"
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

// std::mt19937_64 is the oracle for the in-tree engine: the standard fixes
// its algorithm, so the two must agree output for output from any seed.
TEST(Mt19937_64, MatchesStdEngineOutputForOutput) {
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489}, ~std::uint64_t{0},
          std::uint64_t{0x3a94c1d7e25b608full}}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 want(seed);
        Mt19937_64 got(seed);
        std::size_t mismatches = 0;
        for (int i = 0; i < 1'000'000; ++i) mismatches += got() != want();
        EXPECT_EQ(mismatches, 0u);
    }
}

TEST(Mt19937_64, TenThousandthOutputFromDefaultSeed) {
    // [rand.predef]: the 10000th consecutive invocation of a default-
    // constructed mt19937_64 (seed 5489) produces 9981545732273789042.
    Mt19937_64 engine(std::mt19937_64::default_seed);
    std::uint64_t v = 0;
    for (int i = 0; i < 10'000; ++i) v = engine();
    EXPECT_EQ(v, 9981545732273789042ull);
    static_assert(Mt19937_64::min() == std::mt19937_64::min());
    static_assert(Mt19937_64::max() == std::mt19937_64::max());
}

/// Every RandomStream draw is what the std distribution would return over a
/// std::mt19937_64 with the same seed — the property that keeps every run's
/// output unchanged under the in-tree engine. The draws are interleaved so a
/// distribution that consumed one engine output more or less than its
/// oracle would shift every later comparison.
TEST(RandomStream, DrawsMatchStdDistributionsOverStdEngine) {
    for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{0xfeedbeefull}}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomStream got(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < 20'000; ++i) {
            const double lo = -3.0 + 0.001 * i;
            ASSERT_EQ(got.uniform(lo, lo + 10.5),
                      std::uniform_real_distribution<double>(lo, lo + 10.5)(oracle));
            ASSERT_EQ(got.uniform_int(-5, 5 + i),
                      std::uniform_int_distribution<std::int64_t>(-5, 5 + i)(oracle));
            ASSERT_EQ(got.uniform_int(0, std::numeric_limits<std::int64_t>::max()),
                      std::uniform_int_distribution<std::int64_t>(
                          0, std::numeric_limits<std::int64_t>::max())(oracle));
            ASSERT_EQ(got.gaussian(1.5, 0.25 + 1e-4 * i),
                      std::normal_distribution<double>(1.5, 0.25 + 1e-4 * i)(oracle));
            const double p = (i % 97 + 1) / 99.0;
            ASSERT_EQ(got.chance(p), std::bernoulli_distribution(p)(oracle));
            ASSERT_EQ(got.exponential(2.0 + i % 13),
                      std::exponential_distribution<double>(1.0 / (2.0 + i % 13))(oracle));
        }
    }
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

// ------------------------------------------------------- parked streams

/// One draw of kind `kind` (every RandomStream draw, one small and one
/// full-range uniform_int), as raw bits so doubles compare exactly.
std::uint64_t draw_bits(RandomStream& s, int kind, int i) {
    switch (kind) {
        case 0: return std::bit_cast<std::uint64_t>(s.uniform(-1.0 - i % 7, 3.0));
        case 1: return static_cast<std::uint64_t>(s.uniform_int(0, 31));
        case 2:
            return static_cast<std::uint64_t>(
                s.uniform_int(0, std::numeric_limits<std::int64_t>::max()));
        case 3: return std::bit_cast<std::uint64_t>(s.gaussian(2.0, 0.5 + i % 3));
        case 4: return s.chance(0.3 + 0.1 * (i % 5)) ? 1 : 0;
        default: return std::bit_cast<std::uint64_t>(s.exponential(1.0 + i % 4));
    }
}

std::string blob_of(const RandomStream& s) {
    ckpt::Writer w;
    s.save(w);
    return w.take();
}

/// A stream parked after `n` one-output draws (uniform() consumes exactly
/// one engine output) against a twin that never parks: the blobs match, and
/// so do the draws that follow, across the window and the rebuild. `parks`
/// says whether park() should free the engine.
void expect_parks_like_twin(std::uint64_t n, bool parks) {
    SCOPED_TRACE("park at position " + std::to_string(n));
    RandomStream s(0x5eedull + n);
    RandomStream twin(0x5eedull + n);
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(s.uniform(0, 1), twin.uniform(0, 1));
    s.park();
    EXPECT_EQ(s.holds_engine(), !parks && n > 0);
    ASSERT_EQ(blob_of(s), blob_of(twin));
    for (int i = 0; i < 400; ++i) {
        ASSERT_EQ(draw_bits(s, i % 6, i), draw_bits(twin, i % 6, i)) << "draw " << i;
        if (i % 50 == 7) {
            ASSERT_EQ(blob_of(s), blob_of(twin)) << "draw " << i;
        }
    }
}

TEST(RandomStream, ParkAtEdgePositionsMatchesTwin) {
    constexpr std::uint64_t kWords = Mt19937_64::kStateWords;
    constexpr std::uint64_t kBound = RandomStream::kParkTwistBound;
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(1, true));
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(150, true));  // mid-block
    // The window straddles a twist.
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(kWords - 20, true));
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(kWords - 1, true));
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(kWords, true));  // block spent
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(kWords + 1, true));
    // The bound: 16 twists still park (their rebuild replays 17), 17 do not.
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(kBound * kWords, true));
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(kBound * kWords + 1, false));
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(40 * kWords + 5, false));
    // A new stream: nothing to park.
    ASSERT_NO_FATAL_FAILURE(expect_parks_like_twin(0, true));
}

/// Randomized interleavings of every draw kind, save() and park() against
/// an unparked twin: every draw and every blob byte equal. At random points
/// the blob is loaded into a stream of another seed, which must continue
/// bit for bit and never park (the blob carries no twist count).
TEST(RandomStream, ParkedStreamMatchesUnparkedTwin) {
    std::mt19937_64 script(20260);
    std::size_t parks = 0, refused = 0, rebuilds = 0, loads = 0;
    for (int trial = 0; trial < 48; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const std::uint64_t seed = script();
        RandomStream s(seed);
        RandomStream twin(seed);
        // Long draw runs in some trials carry the engine past the bound.
        const int burst = trial % 3 == 0 ? 600 : 12;
        for (int step = 0; step < 600; ++step) {
            const auto action = script() % 100;
            if (action < 8) {
                const bool held = s.holds_engine();
                s.park();
                parks += held && !s.holds_engine();
                refused += held && s.holds_engine();
            } else if (action < 12) {
                ASSERT_EQ(blob_of(s), blob_of(twin)) << "step " << step;
            } else if (action < 13) {
                const std::string blob = blob_of(twin);
                RandomStream loaded(script());
                ckpt::Reader r(blob);
                loaded.load(r);
                ASSERT_TRUE(r.at_end());
                for (int i = 0; i < 100; ++i) {
                    if (i % 25 == 0) {
                        loaded.park();
                        ASSERT_TRUE(loaded.holds_engine());
                        ASSERT_EQ(blob_of(loaded), blob_of(twin)) << "draw " << i;
                    }
                    const std::uint64_t want = draw_bits(twin, i % 6, i);
                    ASSERT_EQ(draw_bits(loaded, i % 6, i), want)
                        << "step " << step << " loaded draw " << i;
                    ASSERT_EQ(draw_bits(s, i % 6, i), want) << "step " << step << " draw " << i;
                }
                ++loads;
            } else {
                const int n = 1 + static_cast<int>(script() % burst);
                for (int i = 0; i < n; ++i) {
                    const int kind = static_cast<int>(script() % 6);
                    const bool held = s.holds_engine();
                    ASSERT_EQ(draw_bits(s, kind, i), draw_bits(twin, kind, i))
                        << "step " << step << " draw " << i << " kind " << kind;
                    rebuilds += !held && s.holds_engine();
                }
            }
        }
        ASSERT_EQ(blob_of(s), blob_of(twin));
    }
    // The script reached every path it is meant to cover.
    EXPECT_GT(parks, 500u);
    EXPECT_GT(refused, 300u);  // past the twist bound
    EXPECT_GT(rebuilds, 500u);
    EXPECT_GT(loads, 150u);
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
    while (!q.empty()) q.fire_next();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimes) {
    EventQueue q;
    std::vector<int> order;
    const TimePoint t = TimePoint::from_seconds(1.0);
    for (int i = 0; i < 5; ++i) {
        q.schedule(t, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) q.fire_next();
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
    q.fire_next();
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
    q.fire_next();  // fires id
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.size(), 1u);
    q.fire_next();
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
    q.fire_next();  // slot freed, generation bumped
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
    while (!q.empty()) q.fire_next();
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
    while (!q.empty()) q.fire_next();
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
    while (!q.empty()) q.fire_next();
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
            q.fire_next();
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
/// Runs ride along: the model schedules a run's elements one by one, so a
/// run must be indistinguishable from those separate events.
TEST(EventQueue, RandomizedStressMatchesLegacyOracle) {
    EventQueue q;
    QueueModel model;
    std::mt19937_64 rng(0xC0C0A5EEDull);

    using Key = std::pair<TimePoint, std::uint64_t>;
    /// One handle's events: a single event, or every element of a run.
    struct LiveEvent {
        EventId id;
        std::vector<Key> keys;
    };
    std::vector<LiveEvent> live;
    std::vector<std::uint64_t> fired;  // seqs, in firing order
    TimePoint now = TimePoint::origin();
    // The latest run while nothing else has been scheduled since its last
    // element (extend_run must accept it while it is pending), and the last
    // run an interleaved schedule closed (extend_run must refuse it).
    constexpr std::size_t kNone = SIZE_MAX;
    std::size_t open_run = kNone;
    TimePoint open_time;
    EventId closed_run;
    TimePoint closed_time;

    const auto random_time = [&] {
        // Mix of distinct and colliding times to exercise FIFO tie-breaks.
        const std::int64_t offset_ns = static_cast<std::int64_t>(rng() % 5) * 500'000;
        return now + Duration::nanos(1 + offset_ns);
    };
    // A run element's tag carries its model seq; the run callback logs it.
    const auto element_tag = [](std::uint64_t seq) {
        return make_tag(EventKind::kScenarioTick, 0, 0, 0, seq);
    };
    const auto log_element = [&fired](const EventTag& tag) { fired.push_back(tag.a); };
    const auto any_pending = [&](const LiveEvent& e) {
        return std::any_of(e.keys.begin(), e.keys.end(),
                           [&](const Key& k) { return model.pending.contains(k); });
    };

    const auto schedule_one = [&] {
        const TimePoint t = random_time();
        const auto key = model.schedule(t);
        live.push_back({q.schedule(t, [&fired, seq = key.second] { fired.push_back(seq); }),
                        {key}});
        if (open_run != kNone) {
            closed_run = live[open_run].id;
            closed_time = open_time;
            open_run = kNone;
        }
    };
    const auto schedule_run = [&] {
        const TimePoint t = random_time();
        const std::size_t n = 1 + rng() % 8;
        LiveEvent run;
        std::vector<EventTag> tags;
        for (std::size_t i = 0; i < n; ++i) {
            run.keys.push_back(model.schedule(t));
            tags.push_back(element_tag(run.keys.back().second));
        }
        run.id = q.schedule_run(t, log_element, tags);
        live.push_back(std::move(run));
        open_run = live.size() - 1;
        open_time = t;
    };
    const auto extend_open_run = [&] {
        LiveEvent& run = live[open_run];
        const bool extendable = any_pending(run);
        ASSERT_EQ(q.extend_run(run.id, open_time, element_tag(model.next_seq)), extendable);
        if (extendable) {
            run.keys.push_back(model.schedule(open_time));
        } else {
            open_run = kNone;
        }
    };
    const auto pop_one = [&] {
        ASSERT_FALSE(model.pending.empty());
        ASSERT_EQ(q.next_time(), model.pending.begin()->first);
        const auto expected = model.pop();
        now = expected.first;
        const std::size_t before = fired.size();
        q.fire_next();
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), expected.second);
    };

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t dice = rng() % 20;
        if (dice < 7 || q.empty()) {
            schedule_one();
        } else if (dice < 9) {
            schedule_run();
        } else if (dice < 11 && open_run != kNone) {
            ASSERT_NO_FATAL_FAILURE(extend_open_run()) << "at op " << op;
        } else if (dice < 12 && closed_run.valid()) {
            ASSERT_FALSE(q.extend_run(closed_run, closed_time, element_tag(model.next_seq)))
                << "a run extended after an interleaved schedule at op " << op;
        } else if (dice < 15 && !live.empty()) {
            const std::size_t pick = rng() % live.size();
            bool cancelled = false;
            for (const Key& k : live[pick].keys) cancelled |= model.cancel(k);
            ASSERT_EQ(q.cancel(live[pick].id), cancelled)
                << "cancel verdict diverged at op " << op;
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
            if (open_run == pick) {
                open_run = kNone;
            } else if (open_run != kNone && open_run > pick) {
                --open_run;
            }
        } else if (dice < 16 && !live.empty()) {
            const std::size_t pick = rng() % live.size();
            ASSERT_EQ(q.pending(live[pick].id), any_pending(live[pick]));
        } else {
            ASSERT_NO_FATAL_FAILURE(pop_one());
        }
        ASSERT_EQ(q.size(), model.pending.size());
        ASSERT_EQ(q.next_seq(), model.next_seq);
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

/// A run is invisible to a checkpoint: save_kernel writes the bytes the same
/// events scheduled one at a time give, also once some elements have fired.
TEST(Simulator, RunSavesTheSameKernelAsSingleEvents) {
    const TimePoint t = TimePoint::from_nanos(5'000);
    const auto element_tag = [](std::uint32_t i) {
        return make_tag(EventKind::kMediumCca, i, i % 2, 0, 42, 1'000 + i);
    };
    const auto save = [&](bool as_run) {
        Simulator sim;
        std::vector<std::uint32_t> fired;
        // Element 2 stops the loop, leaving the rest of the instant pending.
        const auto element = [&sim, &fired](const EventTag& tag) {
            fired.push_back(tag.node);
            if (tag.node == 2) sim.stop();
        };
        const auto nothing = [](const EventTag&) { return InplaceCallback([] {}); };
        sim.on(EventKind::kScenarioTick, nothing);
        sim.on(EventKind::kScenarioSample, nothing);
        sim.on(EventKind::kMediumCca, [&element](const EventTag& tag) {
            return InplaceCallback([&element, tag] { element(tag); });
        });
        sim.schedule_at(TimePoint::from_nanos(1'000), [] {});
        sim.schedule_at(t, make_tag(EventKind::kScenarioTick, 7));
        std::vector<EventTag> tags;
        for (std::uint32_t i = 0; i < 6; ++i) tags.push_back(element_tag(i));
        if (as_run) {
            const EventId run = sim.schedule_run(t, element, tags);
            EXPECT_TRUE(sim.extend_run(run, t, element_tag(6)));
            EXPECT_TRUE(sim.extend_run(run, t, element_tag(7)));
        } else {
            for (std::uint32_t i = 0; i < 8; ++i) sim.schedule_at(t, element_tag(i));
        }
        sim.schedule_at(t, make_tag(EventKind::kScenarioSample, 9));
        sim.schedule_at(TimePoint::from_nanos(8'000), make_tag(EventKind::kScenarioSample, 3));
        sim.run_until(TimePoint::from_nanos(6'000));
        EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 1, 2}));
        EXPECT_EQ(sim.now(), t);
        EXPECT_EQ(sim.pending_events(), 7u);  // elements 3..7 and two singles
        ckpt::Writer w;
        sim.save_kernel(w);
        return w.take();
    };
    EXPECT_EQ(save(true), save(false));
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

// ------------------------------------------------- one handler per event kind

/// A tagged event is built by its kind's handler, so a tag whose kind has
/// none is refused at the schedule site, and nothing is queued.
TEST(Simulator, TaggedScheduleWithoutHandlerThrows) {
    Simulator sim;
    sim.on(EventKind::kScenarioSample, [](const EventTag&) { return InplaceCallback([] {}); });
    const EventTag tick = make_tag(EventKind::kScenarioTick);
    EXPECT_THROW(sim.schedule_at(TimePoint::from_nanos(10), tick), std::logic_error);
    EXPECT_THROW(sim.schedule_in(Duration::nanos(10), tick), std::logic_error);
    EXPECT_THROW(sim.schedule_with_seq(TimePoint::from_nanos(10), 1, tick), std::logic_error);
    EXPECT_THROW(sim.schedule_at(TimePoint::from_nanos(10), make_tag(EventKind::kSwarmDoze)),
                 std::logic_error);
    EXPECT_THROW(sim.schedule_at(TimePoint::from_nanos(10), EventTag{.kind = 1000}),
                 std::logic_error);  // past every kind
    EXPECT_EQ(sim.pending_events(), 0u);
}

/// Each kind has exactly one handler: a second registration throws and
/// leaves the first in place.
TEST(Simulator, SecondHandlerForAKindThrows) {
    Simulator sim;
    int first = 0;
    sim.on(EventKind::kScenarioTick,
           [&first](const EventTag&) { return InplaceCallback([&first] { ++first; }); });
    EXPECT_THROW(
        sim.on(EventKind::kScenarioTick, [](const EventTag&) { return InplaceCallback([] {}); }),
        std::logic_error);
    sim.schedule_in(Duration::nanos(5), make_tag(EventKind::kScenarioTick));
    sim.run();
    EXPECT_EQ(first, 1);
}

/// schedule_with_seq builds its event through the handler from the tag, and
/// the explicit seqs order same-instant events; the placed hook is a
/// restore-only step the fork path does not take.
TEST(Simulator, ScheduleWithSeqBuildsTheEventThroughItsHandler) {
    Simulator sim;
    std::vector<std::uint64_t> fired;
    int placed = 0;
    sim.on(
        EventKind::kFaultStrike,
        [&fired](const EventTag& tag) {
            return InplaceCallback([&fired, a = tag.a] { fired.push_back(a); });
        },
        [&placed](const EventTag&, EventId) { ++placed; });
    const auto strike = [](std::uint64_t a) {
        return make_tag(EventKind::kFaultStrike, 0, 0, 0, a);
    };
    sim.schedule_with_seq(TimePoint::from_nanos(5), 7, strike(70));
    sim.schedule_with_seq(TimePoint::from_nanos(5), 3, strike(30));
    sim.run();
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{30, 70}));
    EXPECT_EQ(placed, 0);
}

}  // namespace
}  // namespace cocoa::sim
