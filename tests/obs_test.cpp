// Tests for the observability layer (src/obs): the counter registry and its
// node-prefix aggregation, both trace formats down to the byte, the
// wall-clock profiler, and the trace-golden event ordering of a two-node
// MAC exchange end to end.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "mac/medium.hpp"
#include "mac/radio.hpp"
#include "net/packet.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"

namespace cocoa::obs {
namespace {

using cocoa::sim::Duration;
using cocoa::sim::TimePoint;

// ---------------------------------------------------------------- registry

TEST(CounterRegistry, AddAndRead) {
    CounterRegistry reg;
    std::uint64_t a = 3;
    std::uint64_t b = 0;
    reg.add("node.0.mac.tx_frames", &a);
    reg.add("medium.frames_sent", &b);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.contains("medium.frames_sent"));
    EXPECT_FALSE(reg.contains("nope"));
    EXPECT_EQ(reg.value("node.0.mac.tx_frames"), 3u);
    // Registration records a pointer, not a value: later increments show up.
    a = 7;
    EXPECT_EQ(reg.value("node.0.mac.tx_frames"), 7u);
}

TEST(CounterRegistry, RejectsDuplicateAndNull) {
    CounterRegistry reg;
    std::uint64_t x = 0;
    reg.add("a", &x);
    EXPECT_THROW(reg.add("a", &x), std::invalid_argument);
    EXPECT_THROW(reg.add("b", nullptr), std::invalid_argument);
    EXPECT_THROW(reg.value("unknown"), std::out_of_range);
}

TEST(CounterRegistry, SnapshotSortedByName) {
    CounterRegistry reg;
    std::uint64_t x = 1, y = 2, z = 3;
    reg.add("zeta", &z);
    reg.add("alpha", &x);
    reg.add("mid", &y);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].first, "alpha");
    EXPECT_EQ(snap[1].first, "mid");
    EXPECT_EQ(snap[2].first, "zeta");
    EXPECT_EQ(snap[0].second, 1u);
    EXPECT_EQ(snap[2].second, 3u);
}

TEST(CounterRegistry, SnapshotReusesCachedBuffer) {
    CounterRegistry reg;
    std::uint64_t x = 1;
    std::uint64_t y = 2;
    reg.add("b", &y);
    reg.add("a", &x);
    const auto& first = reg.snapshot();
    const auto* buffer = &first;
    const auto* storage = first.data();
    x = 5;
    const auto& second = reg.snapshot();
    // Same buffer, refreshed in place: per-replication snapshots neither
    // copy names nor allocate once the name set is stable.
    EXPECT_EQ(&second, buffer);
    EXPECT_EQ(second.data(), storage);
    EXPECT_EQ(second[0].first, "a");
    EXPECT_EQ(second[0].second, 5u);
    // Registering after a snapshot rebuilds the cached name column once.
    std::uint64_t z = 9;
    reg.add("c", &z);
    const auto& third = reg.snapshot();
    ASSERT_EQ(third.size(), 3u);
    EXPECT_EQ(third[2].first, "c");
    EXPECT_EQ(third[2].second, 9u);
}

/// Registration order never shows: thousands of names registered in a
/// shuffled order (a 200-robot scenario registers ~4.6k) snapshot sorted.
TEST(CounterRegistry, ShuffledRegistrationSnapshotsSorted) {
    constexpr std::size_t kN = 5000;
    std::vector<std::string> names;
    for (std::size_t i = 0; i < kN; ++i) {
        names.push_back("node." + std::to_string(i) + ".mac.tx_frames");
    }
    std::vector<std::uint64_t> values(kN);
    std::vector<std::size_t> order(kN);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), std::mt19937_64(17));

    CounterRegistry reg;
    for (const std::size_t i : order) {
        values[i] = i;
        reg.add(names[i], &values[i]);
    }
    EXPECT_THROW(reg.add(names[order[kN / 2]], &values[0]), std::invalid_argument);

    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    const auto& snap = reg.snapshot();
    ASSERT_EQ(snap.size(), kN);
    for (std::size_t k = 0; k < kN; ++k) {
        ASSERT_EQ(snap[k].first, sorted[k]);
        EXPECT_EQ(snap[k].second, reg.value(sorted[k]));
    }
}

TEST(CounterRegistry, AggregateFoldsNodePrefixes) {
    const std::vector<std::pair<std::string, std::uint64_t>> snap = {
        {"medium.frames_sent", 9},
        {"node.0.mac.tx_frames", 2},
        {"node.12.mac.tx_frames", 5},
        {"node.3.energy.transitions", 4},
        {"node.x.mac.tx_frames", 1},  // non-numeric id: passes through
    };
    const auto agg = aggregate_node_counters(snap);
    EXPECT_EQ(agg.at("mac.tx_frames"), 7u);
    EXPECT_EQ(agg.at("energy.transitions"), 4u);
    EXPECT_EQ(agg.at("medium.frames_sent"), 9u);
    EXPECT_EQ(agg.at("node.x.mac.tx_frames"), 1u);
    EXPECT_FALSE(agg.contains("node.0.mac.tx_frames"));
}

// ------------------------------------------------------------------- trace

TEST(TraceSink, DisabledByDefault) {
    TraceSink sink;
    EXPECT_FALSE(sink.enabled());
    sink.instant(TimePoint::from_seconds(1.0), "mac", "frame", 0);
    EXPECT_EQ(sink.events_emitted(), 0u);
}

TEST(TraceSink, JsonlFormatByteExact) {
    TraceSink sink;
    std::ostringstream os;
    sink.open(os, TraceSink::Format::Jsonl);
    EXPECT_TRUE(sink.enabled());
    sink.instant(TimePoint::from_seconds(1.5), "mac", "rx_lock", 3,
                 {{"rssi_dbm", -80.25}});
    sink.complete(TimePoint::from_seconds(1.0), TimePoint::from_seconds(1.25),
                  "mac", "frame", 0, {{"bytes", 92.0}});
    sink.close();
    EXPECT_FALSE(sink.enabled());
    EXPECT_EQ(sink.events_emitted(), 2u);
    EXPECT_EQ(os.str(),
              "{\"t_s\":1.500000000,\"cat\":\"mac\",\"name\":\"rx_lock\","
              "\"node\":3,\"rssi_dbm\":-80.250000}\n"
              "{\"t_s\":1.000000000,\"cat\":\"mac\",\"name\":\"frame\","
              "\"node\":0,\"dur_s\":0.250000000,\"bytes\":92.000000}\n");
}

TEST(TraceSink, ChromeTraceFormat) {
    TraceSink sink;
    std::ostringstream os;
    sink.open(os, TraceSink::Format::ChromeTrace);
    sink.complete(TimePoint::from_seconds(1.0), TimePoint::from_seconds(1.25),
                  "mac", "frame", 0, {{"bytes", 92.0}});
    sink.instant(TimePoint::from_seconds(1.5), "cocoa", "fix", 3);
    sink.close();
    const std::string out = os.str();
    // The whole thing is a JSON array.
    EXPECT_EQ(out.front(), '[');
    EXPECT_EQ(out.substr(out.size() - 3), "\n]\n");
    // Complete event: sim seconds become trace microseconds, with duration.
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"ts\":1000000.000"), std::string::npos);
    EXPECT_NE(out.find("\"dur\":250000.000"), std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"bytes\":92.000000}"), std::string::npos);
    // Instant event with thread (= node) scope.
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(out.find("\"tid\":3"), std::string::npos);
    // Exactly one comma separates the two event objects.
    EXPECT_NE(out.find("},\n{"), std::string::npos);
}

TEST(TraceSink, OpenTwiceThrowsAndReopenAfterCloseWorks) {
    TraceSink sink;
    std::ostringstream a;
    sink.open(a, TraceSink::Format::Jsonl);
    std::ostringstream b;
    EXPECT_THROW(sink.open(b, TraceSink::Format::Jsonl), std::logic_error);
    sink.close();
    EXPECT_NO_THROW(sink.open(b, TraceSink::Format::ChromeTrace));
    sink.close();
    EXPECT_EQ(b.str(), "[\n]\n");
}

TEST(TraceSink, OpenFileFailureThrows) {
    TraceSink sink;
    EXPECT_THROW(sink.open_file("/no/such/dir/trace.json",
                                TraceSink::Format::ChromeTrace),
                 std::runtime_error);
    EXPECT_FALSE(sink.enabled());
}

// ---------------------------------------------------------------- profiler

TEST(Profiler, RecordsOnlyWhenEnabled) {
    Profiler::instance().reset();
    Profiler::set_enabled(false);
    { ProfileScope scope("obs_test.disabled"); }
    EXPECT_TRUE(Profiler::instance().entries().empty());

    Profiler::set_enabled(true);
    { ProfileScope scope("obs_test.enabled"); }
    { ProfileScope scope("obs_test.enabled"); }
    Profiler::set_enabled(false);

    const auto entries = Profiler::instance().entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].name, "obs_test.enabled");
    EXPECT_EQ(entries[0].calls, 2u);

    std::ostringstream os;
    Profiler::instance().report(os);
    EXPECT_NE(os.str().find("obs_test.enabled"), std::string::npos);
    Profiler::instance().reset();
    EXPECT_TRUE(Profiler::instance().entries().empty());
}

// ------------------------------------------- trace-golden two-node exchange

/// One frame from radio 0 to radio 1 over a deterministic channel, traced in
/// JSONL. Pins the event *ordering* contract: the frame span is emitted at
/// transmission start, the receiver locks one CCA after that, and delivery
/// lands at frame end.
TEST(TraceGolden, TwoNodeExchangeEventOrder) {
    phy::ChannelConfig cc;
    cc.shadowing_sigma_near_db = 0.0;
    cc.shadowing_sigma_far_db = 0.0;
    cc.fade_mean_far_db = 0.0;
    const phy::Channel channel{cc};
    sim::Simulator sim(1);
    mac::Medium medium(sim, channel);

    mac::MacConfig no_backoff;
    no_backoff.cw_min = 0;
    mac::Radio tx(sim, medium, 0, [] { return geom::Vec2{0.0, 0.0}; },
                  energy::PowerProfile::wavelan(),
                  sim.rng().stream("backoff", 0), no_backoff);
    mac::Radio rx(sim, medium, 1, [] { return geom::Vec2{20.0, 0.0}; },
                  energy::PowerProfile::wavelan(),
                  sim.rng().stream("backoff", 1), no_backoff);
    rx.set_receive_handler([](const net::Packet&, const net::RxInfo&) {});

    std::ostringstream os;
    medium.obs().trace.open(os, TraceSink::Format::Jsonl);
    sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
        net::Packet p;
        p.port = net::Port::Test;
        p.payload_bytes = 24;
        p.payload = net::TestPayload{7};
        tx.send(p);
    });
    sim.run();
    medium.obs().trace.close();

    // Collect the "name" field of every line, in emission order.
    std::vector<std::string> names;
    std::istringstream lines(os.str());
    for (std::string line; std::getline(lines, line);) {
        const auto key = line.find("\"name\":\"");
        ASSERT_NE(key, std::string::npos) << line;
        const auto start = key + 8;
        names.push_back(line.substr(start, line.find('"', start) - start));
        // Every line is one flat JSON object.
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    const std::vector<std::string> expected = {"frame", "rx_lock", "rx_deliver"};
    EXPECT_EQ(names, expected);

    // The counters of the same exchange, through the same registry.
    EXPECT_EQ(medium.obs().counters.value("node.0.mac.tx_frames"), 1u);
    EXPECT_EQ(medium.obs().counters.value("node.1.mac.rx_delivered"), 1u);
    EXPECT_EQ(medium.obs().counters.value("medium.frames_sent"), 1u);
}

// ------------------------------------------------------- scenario plumbing

TEST(ScenarioCounters, ResultCarriesRegistrySnapshot) {
    core::ScenarioConfig c;
    c.seed = 23;
    c.num_robots = 10;
    c.num_anchors = 5;
    c.duration = Duration::minutes(2);
    c.period = Duration::seconds(50.0);
    const auto r = core::run_scenario(c);
    ASSERT_FALSE(r.counters.empty());

    // Every subsystem shows up under its hierarchical name.
    const auto has = [&](const std::string& name) {
        for (const auto& [n, v] : r.counters) {
            if (n == name) return true;
        }
        return false;
    };
    EXPECT_TRUE(has("medium.frames_sent"));
    EXPECT_TRUE(has("node.0.mac.tx_frames"));
    EXPECT_TRUE(has("node.0.energy.transitions"));
    EXPECT_TRUE(has("node.0.mcast.queries_sent"));
    EXPECT_TRUE(has("node.0.agent.beacons_sent"));
    EXPECT_TRUE(has("node.0.localizer.fixes"));

    // The aggregated view matches the per-node sum for a spot-checked name.
    const auto agg = aggregate_node_counters(r.counters);
    std::uint64_t tx_sum = 0;
    for (const auto& [n, v] : r.counters) {
        if (n.ends_with(".mac.tx_frames")) tx_sum += v;
    }
    EXPECT_EQ(agg.at("mac.tx_frames"), tx_sum);
    EXPECT_GT(tx_sum, 0u);

    // Counter totals line up with the agent stats the scenario already sums.
    EXPECT_EQ(agg.at("agent.fixes"), r.agent_totals.fixes);
}

}  // namespace
}  // namespace cocoa::obs
