// Checkpoint/fork engine tests: RNG stream round-trips, rejection of blobs
// from other format versions and of out-of-range enum fields, randomized
// checkpoint-time fuzzing on the fig7 scenario and a 1k-node swarm
// (snapshot mid-run, resume, diff full position traces + counters against
// the straight run), blob file I/O, and the forked-sweep identity contract
// (forked and unforked sweeps produce byte-identical records).

#include <cstdio>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "core/swarm.hpp"
#include "energy/energy.hpp"
#include "exp/checkpoint.hpp"
#include "exp/replication.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sim/checkpoint.hpp"
#include "sim/random.hpp"

namespace cocoa {
namespace {

/// The message of the std::runtime_error `fn` throws ("" if none).
template <typename Fn>
std::string runtime_error_of(Fn&& fn) {
    try {
        fn();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

// ----------------------------------------------------------- corrupt blobs

/// A blob of any other format version (the previous layout, or a newer one)
/// is rejected by its header, naming both versions, before any section is
/// parsed.
TEST(CheckpointFormat, ReadHeaderRejectsOtherVersions) {
    sim::ckpt::Writer w;
    sim::ckpt::write_header(w, sim::ckpt::Flavor::kScenario);
    const std::string header = w.take();
    sim::ckpt::Reader current(header);
    EXPECT_EQ(sim::ckpt::read_header(current), sim::ckpt::Flavor::kScenario);

    const std::string supported = std::to_string(sim::ckpt::kFormatVersion);
    for (const std::uint32_t version : {1u, sim::ckpt::kFormatVersion + 1}) {
        sim::ckpt::Writer v;
        v.u32(version);
        std::string blob = header;
        blob.replace(8, 4, v.buffer());  // u64 magic | u32 version | u32 flavor
        sim::ckpt::Reader r(blob);
        EXPECT_EQ(runtime_error_of([&] { sim::ckpt::read_header(r); }),
                  "checkpoint: format version " + std::to_string(version) +
                      " != supported " + supported);
    }
}

/// A radio-state byte outside RadioState is rejected at load, before the
/// next accrue() could index the per-state energy table with it.
TEST(CheckpointFormat, EnergyMeterRejectsOutOfRangeState) {
    const energy::PowerProfile profile = energy::PowerProfile::wavelan();
    energy::EnergyMeter saved(profile, sim::TimePoint::origin());
    sim::ckpt::Writer w;
    saved.save(w);
    std::string blob = w.take();

    blob[0] = 9;  // the state byte opens the meter's section
    energy::EnergyMeter bad(profile, sim::TimePoint::origin());
    sim::ckpt::Reader r(blob);
    EXPECT_EQ(runtime_error_of([&] { bad.load(r); }),
              "checkpoint: enum value 9 outside its valid range [0, 4] — corrupt blob");

    // The last valid state still loads and accrues.
    blob[0] = static_cast<char>(energy::RadioState::Tx);
    energy::EnergyMeter good(profile, sim::TimePoint::origin());
    sim::ckpt::Reader ok(blob);
    good.load(ok);
    EXPECT_TRUE(ok.at_end());
    good.settle(sim::TimePoint::from_seconds(1.0));
    EXPECT_GT(good.total_mj(), 0.0);
}

// ------------------------------------------------------------- RNG streams

TEST(CheckpointRng, StreamRoundTripBitwise) {
    sim::RandomStream a(42);
    // Burn a mixed prefix so the engine is mid-sequence, not at a seed point.
    for (int i = 0; i < 100; ++i) {
        (void)a.uniform(0.0, 1.0);
        (void)a.uniform_int(0, 1000);
        (void)a.gaussian(0.0, 2.0);
    }
    sim::ckpt::Writer w;
    a.save(w);
    const std::string blob = w.take();

    // Reference continuation from the saved point.
    std::vector<double> want_u, want_n;
    std::vector<std::int64_t> want_i;
    for (int i = 0; i < 50; ++i) {
        want_u.push_back(a.uniform(0.0, 1.0));
        want_i.push_back(a.uniform_int(0, 1000));
        want_n.push_back(a.gaussian(0.0, 2.0));
    }

    // A fresh stream (different seed on purpose) loaded from the blob must
    // reproduce the continuation bit for bit.
    sim::RandomStream b(7);
    sim::ckpt::Reader r(blob);
    b.load(r);
    EXPECT_TRUE(r.at_end());
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(b.uniform(0.0, 1.0), want_u[static_cast<std::size_t>(i)]);
        EXPECT_EQ(b.uniform_int(0, 1000), want_i[static_cast<std::size_t>(i)]);
        EXPECT_EQ(b.gaussian(0.0, 2.0), want_n[static_cast<std::size_t>(i)]);
    }
}

TEST(CheckpointRng, BlobFileRoundTrip) {
    sim::ckpt::Writer w;
    w.mark(0x54455354);
    w.u64(123456789ull);
    w.str(std::string_view("payload with\0embedded nul bytes", 31));
    const std::string blob = w.take();

    const std::string path = ::testing::TempDir() + "ckpt_blob_roundtrip.bin";
    sim::ckpt::write_blob_file(path, blob);
    EXPECT_EQ(sim::ckpt::read_blob_file(path), blob);
    std::remove(path.c_str());

    EXPECT_THROW(sim::ckpt::read_blob_file(path + ".missing"), std::runtime_error);
}

// ------------------------------------------------------- scenario fuzzing

/// Small fig7-shaped scenario with a non-empty, multi-kind fault plan so a
/// mid-run snapshot catches armed strikes, outage intervals and loss bursts.
core::ScenarioConfig fuzz_config() {
    core::ScenarioConfig c;
    c.seed = 11;
    c.num_robots = 10;
    c.num_anchors = 8;
    c.area_side_m = 120.0;
    c.duration = sim::Duration::seconds(120.0);
    c.period = sim::Duration::seconds(20.0);
    c.window = sim::Duration::seconds(3.0);
    return c;
}

fault::FaultPlan fuzz_plan() {
    return fault::FaultPlan::parse(
        "crash@70:node=7;"
        "outage@30+20:node=4;"
        "loss@50+25:p=0.5,db=3");
}

/// Everything a run reports, folded into one comparable string: the full
/// counter registry, the error series (bit-exact doubles via hexfloat), the
/// agent/medium totals and the complete position trace.
std::string scenario_digest(const core::ScenarioResult& result,
                            const core::Scenario& scenario) {
    std::ostringstream ss;
    ss << std::hexfloat;
    ss << "events=" << result.executed_events << "\n";
    for (const auto& [name, value] : result.counters) {
        ss << name << "=" << value << "\n";
    }
    ss << "fixes=" << result.agent_totals.fixes
       << " nofix=" << result.agent_totals.windows_without_fix
       << " btx=" << result.agent_totals.beacons_sent
       << " brx=" << result.agent_totals.beacons_received
       << " sync=" << result.agent_totals.syncs_received
       << " frames=" << result.medium_stats.frames_sent << "\n";
    ss << "energy=" << result.team_energy.tx_mj << "," << result.team_energy.rx_mj
       << "," << result.team_energy.idle_mj << "," << result.team_energy.sleep_mj
       << "\n";
    for (const auto& s : result.avg_error.samples()) {
        ss << s.time.to_nanos() << ":" << s.value << "\n";
    }
    scenario.write_position_trace_csv(ss);
    return ss.str();
}

TEST(CheckpointFuzz, ScenarioRestoreMatchesStraightRun) {
    const core::ScenarioConfig config = fuzz_config();
    const fault::FaultPlan plan = fuzz_plan();

    // Straight run: the oracle every snapshot/restore must reproduce.
    core::Scenario straight(config);
    fault::FaultInjector straight_injector(straight, plan);
    straight_injector.arm();
    straight.enable_position_trace(sim::Duration::seconds(5.0));
    straight.run();
    const std::string want = scenario_digest(straight.result(), straight);
    const fault::ResilienceReport want_rep =
        straight_injector.report(straight.result());

    // Snapshot at random mid-run instants (fixed fuzz seed: reproducible,
    // but instants are not hand-picked around event boundaries).
    std::mt19937_64 fuzz(2026);
    std::uniform_real_distribution<double> pick(5.0, 115.0);
    for (int trial = 0; trial < 3; ++trial) {
        const double at_s = pick(fuzz);
        SCOPED_TRACE("checkpoint at t=" + std::to_string(at_s));

        core::Scenario prefix(config);
        fault::FaultInjector injector(prefix, plan);
        injector.arm();
        prefix.enable_position_trace(sim::Duration::seconds(5.0));
        prefix.run_until(sim::TimePoint::origin() +
                         sim::Duration::seconds(at_s));
        const std::string blob = exp::save_scenario_checkpoint(prefix, &injector);

        exp::RestoredScenario restored = exp::restore_scenario_checkpoint(blob);
        ASSERT_NE(restored.scenario, nullptr);
        ASSERT_NE(restored.injector, nullptr);
        restored.scenario->run();
        EXPECT_EQ(scenario_digest(restored.scenario->result(), *restored.scenario),
                  want);

        const fault::ResilienceReport rep =
            restored.injector->report(restored.scenario->result());
        EXPECT_EQ(rep.availability, want_rep.availability);
        EXPECT_EQ(rep.avail_before, want_rep.avail_before);
        EXPECT_EQ(rep.avail_during, want_rep.avail_during);
        EXPECT_EQ(rep.avail_after, want_rep.avail_after);
        EXPECT_EQ(rep.samples_total, want_rep.samples_total);
        EXPECT_EQ(rep.reacquired, want_rep.reacquired);
        EXPECT_EQ(rep.never_reacquired, want_rep.never_reacquired);
        EXPECT_EQ(rep.mean_reacquire_s, want_rep.mean_reacquire_s);
    }
}

TEST(CheckpointFuzz, ScenarioRestoreSurvivesSecondHop) {
    // Checkpoint, restore, run a while, checkpoint AGAIN from the restored
    // instance, restore that, finish — still identical to the straight run.
    const core::ScenarioConfig config = fuzz_config();
    const fault::FaultPlan plan = fuzz_plan();

    core::Scenario straight(config);
    fault::FaultInjector straight_injector(straight, plan);
    straight_injector.arm();
    straight.run();
    const std::string want = scenario_digest(straight.result(), straight);

    core::Scenario prefix(config);
    fault::FaultInjector injector(prefix, plan);
    injector.arm();
    prefix.run_until(sim::TimePoint::origin() + sim::Duration::seconds(35.0));
    const std::string hop1 = exp::save_scenario_checkpoint(prefix, &injector);

    exp::RestoredScenario mid = exp::restore_scenario_checkpoint(hop1);
    mid.scenario->run_until(sim::TimePoint::origin() +
                            sim::Duration::seconds(80.0));
    const std::string hop2 =
        exp::save_scenario_checkpoint(*mid.scenario, mid.injector.get());

    exp::RestoredScenario fin = exp::restore_scenario_checkpoint(hop2);
    fin.scenario->run();
    EXPECT_EQ(scenario_digest(fin.scenario->result(), *fin.scenario), want);
}

// ---------------------------------------------------------- swarm fuzzing

std::string swarm_digest(const core::SwarmResult& r) {
    std::ostringstream ss;
    ss << "events=" << r.executed_events << " delivered=" << r.frames_delivered
       << " sent=" << r.medium_stats.frames_sent
       << " asleep=" << r.medium_stats.missed_asleep
       << " visited=" << r.medium_stats.radios_visited
       << " culled=" << r.medium_stats.radios_culled << "\n";
    ss << "tree=" << r.index_stats.inserts << "," << r.index_stats.removes << ","
       << r.index_stats.migrations << "," << r.index_stats.in_cell_updates << ","
       << r.index_stats.full_refreshes << "," << r.index_stats.queries << ","
       << r.index_stats.candidates_visited << "," << r.index_stats.cells_pruned
       << "\n";
    ss << "cache=" << r.radius_cache_stats.lookups << ","
       << r.radius_cache_stats.hits << "," << r.radius_cache_stats.misses << ","
       << r.radius_cache_stats.evictions << ","
       << r.radius_cache_stats.cells_pruned << ","
       << r.radius_cache_stats.sparse_bypass << "\n";
    ss << std::hexfloat;
    for (const geom::Vec2& p : r.final_positions) {
        ss << p.x << "," << p.y << "\n";
    }
    return ss.str();
}

TEST(CheckpointFuzz, SwarmRestoreMatchesStraightRun) {
    core::SwarmConfig config;
    config.nodes = 1000;
    config.seed = 99;
    config.duration = sim::Duration::seconds(12.0);
    config.collect_final_positions = true;

    core::Swarm straight(config);
    straight.run();
    const std::string want = swarm_digest(straight.result());

    std::mt19937_64 fuzz(4242);
    std::uniform_real_distribution<double> pick(1.0, 11.0);
    for (int trial = 0; trial < 2; ++trial) {
        const double at_s = pick(fuzz);
        SCOPED_TRACE("swarm checkpoint at t=" + std::to_string(at_s));

        core::Swarm prefix(config);
        prefix.run_until(sim::TimePoint::origin() +
                         sim::Duration::seconds(at_s));
        const std::string blob = exp::save_swarm_checkpoint(prefix);

        std::unique_ptr<core::Swarm> restored =
            exp::restore_swarm_checkpoint(blob);
        ASSERT_NE(restored, nullptr);
        restored->run();
        EXPECT_EQ(swarm_digest(restored->result()), want);
    }
}

// ------------------------------------------------------ forked sweep runs

TEST(CheckpointFork, ForkedSweepMatchesUnforked) {
    core::ScenarioConfig config = fuzz_config();
    config.duration = sim::Duration::seconds(90.0);

    // Three cells sharing (config, seed): baseline + two divergent futures.
    std::vector<core::ScenarioConfig> configs(3, config);
    std::vector<fault::FaultPlan> plans;
    plans.emplace_back();  // baseline: runs straight, never forks
    plans.push_back(fault::FaultPlan::parse("crash@60:node=7"));
    plans.push_back(fault::FaultPlan::parse("loss@55+20:p=0.5"));

    exp::ReplicationOptions opt;
    opt.n_reps = 2;

    opt.fork = false;
    opt.n_threads = 1;
    const std::vector<exp::ReplicationSet> want =
        exp::run_sweep(configs, plans, opt);

    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        opt.fork = true;
        opt.n_threads = threads;
        const std::vector<exp::ReplicationSet> got =
            exp::run_sweep(configs, plans, opt);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].records.size(), want[i].records.size());
            for (std::size_t k = 0; k < want[i].records.size(); ++k) {
                const exp::ReplicationRecord& a = got[i].records[k];
                const exp::ReplicationRecord& b = want[i].records[k];
                EXPECT_EQ(a.seed, b.seed);
                EXPECT_EQ(a.avg_error_m, b.avg_error_m);
                EXPECT_EQ(a.steady_error_m, b.steady_error_m);
                EXPECT_EQ(a.total_energy_kj, b.total_energy_kj);
                EXPECT_EQ(a.executed_events, b.executed_events);
            }
            EXPECT_EQ(got[i].counter_totals, want[i].counter_totals);
            EXPECT_EQ(got[i].has_resilience, want[i].has_resilience);
            if (want[i].has_resilience) {
                EXPECT_EQ(got[i].availability.mean(), want[i].availability.mean());
            }
        }
    }
}

TEST(CheckpointFork, SingleCellSweepNeverForks) {
    // One task per (config, seed) group: the fork detector must leave it on
    // the straight path (a fork would only add snapshot overhead).
    const core::ScenarioConfig config = fuzz_config();
    std::vector<core::ScenarioConfig> configs{config};
    std::vector<fault::FaultPlan> plans{
        fault::FaultPlan::parse("crash@70:node=7")};

    exp::ReplicationOptions opt;
    opt.n_reps = 1;
    opt.n_threads = 1;

    opt.fork = false;
    const auto want = exp::run_sweep(configs, plans, opt);
    opt.fork = true;
    const auto got = exp::run_sweep(configs, plans, opt);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].records[0].avg_error_m, want[0].records[0].avg_error_m);
    EXPECT_EQ(got[0].records[0].executed_events,
              want[0].records[0].executed_events);
}

}  // namespace
}  // namespace cocoa
