// Checkpoint/fork engine tests: RNG stream round-trips and their raw-word
// layout, rejection of blobs from other format versions, of out-of-range enum
// fields and RNG positions, of truncated RNG words, of config fields
// outside their rules, of counts past the blob's end and of a series count
// other than the robot count, the config field lists (every leaf
// round-trips, the layout is pinned), the pinned packet layout, randomized
// checkpoint-time fuzzing on the fig7 scenario and a 1k-node swarm
// (snapshot mid-run, resume, diff full position traces + counters against
// the straight run), truncation at every section, blob file I/O, and the
// forked-sweep identity contract (forked and unforked sweeps produce
// byte-identical records, with one PDF calibration per replication seed).

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint_io.hpp"
#include "core/scenario.hpp"
#include "core/swarm.hpp"
#include "energy/energy.hpp"
#include "exp/checkpoint.hpp"
#include "exp/replication.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/time_series.hpp"
#include "net/packet.hpp"
#include "obs/profile.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fields.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

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

/// A blob of any other format version (an older layout, 1 to 3, or a newer
/// one) is rejected by its header, naming both versions, before any section is
/// parsed.
TEST(CheckpointFormat, ReadHeaderRejectsOtherVersions) {
    sim::ckpt::Writer w;
    sim::ckpt::write_header(w, sim::ckpt::Flavor::kScenario);
    const std::string header = w.take();
    sim::ckpt::Reader current(header);
    EXPECT_EQ(sim::ckpt::read_header(current), sim::ckpt::Flavor::kScenario);

    const std::string supported = std::to_string(sim::ckpt::kFormatVersion);
    for (const std::uint32_t version : {1u, 2u, 3u, sim::ckpt::kFormatVersion + 1}) {
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

/// A stream saves as 313 little-endian words: the engine's 312 state words,
/// then its position (312 right after seeding: the first draw twists).
TEST(CheckpointRng, StreamSavesStateWordsThenPosition) {
    sim::RandomStream fresh(42);
    sim::ckpt::Writer w;
    fresh.save(w);
    const std::string blob = w.take();
    ASSERT_EQ(blob.size(), 313u * 8u);

    sim::ckpt::Reader r(blob);
    EXPECT_EQ(r.u64(), 42u);  // MT19937-64 seeding stores the seed as word 0
    for (int i = 1; i < 312; ++i) (void)r.u64();
    EXPECT_EQ(r.u64(), 312u);
    EXPECT_TRUE(r.at_end());
}

/// The position is the one value a blob could set out of the engine's
/// reach; load() rejects it by value instead of indexing past the state.
/// Every position in [0, 312] loads.
TEST(CheckpointRng, StreamRejectsOutOfRangePosition) {
    sim::ckpt::Writer w;
    sim::RandomStream(42).save(w);
    const std::string blob = w.take();
    const auto with_position = [&](std::uint64_t position) {
        sim::ckpt::Writer p;
        p.u64(position);
        std::string patched = blob;
        patched.replace(312 * 8, 8, p.buffer());
        return patched;
    };
    const auto load = [](const std::string& bytes) {
        return runtime_error_of([&] {
            sim::RandomStream stream(7);
            sim::ckpt::Reader r(bytes);
            stream.load(r);
            (void)stream.uniform(0.0, 1.0);
        });
    };
    EXPECT_EQ(load(with_position(313)),
              "checkpoint: RNG position 313 outside its valid range [0, 312] "
              "— corrupt blob");
    EXPECT_EQ(load(with_position(~std::uint64_t{0})),
              "checkpoint: RNG position 18446744073709551615 outside its valid "
              "range [0, 312] — corrupt blob");
    EXPECT_EQ(load(with_position(0)), "");
    EXPECT_EQ(load(with_position(311)), "");
    EXPECT_EQ(load(with_position(312)), "");
}

TEST(CheckpointRng, StreamRejectsTruncatedWords) {
    sim::ckpt::Writer w;
    sim::RandomStream(42).save(w);
    const std::string blob = w.take();
    for (const std::size_t keep : {std::size_t{0}, std::size_t{7}, std::size_t{1000},
                                   std::size_t{312 * 8}, blob.size() - 1}) {
        SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
        sim::RandomStream stream(7);
        sim::ckpt::Reader r(std::string_view(blob).substr(0, keep));
        EXPECT_EQ(runtime_error_of([&] { stream.load(r); }),
                  "checkpoint: truncated blob");
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

/// A loss burst read back from a blob passes the same checks as a live one:
/// a negative attenuation would be a gain, which the medium's quiet RSSI
/// draw (like the physics) rules out.
TEST(CheckpointFormat, MediumRejectsAmplifyingLossBurst) {
    core::Scenario prefix(fuzz_config());
    fault::FaultInjector injector(prefix, fault::FaultPlan::parse("loss@50+25:p=0.5,db=3"));
    injector.arm();
    prefix.run_until(sim::TimePoint::from_seconds(10.0));
    std::string blob = exp::save_scenario_checkpoint(prefix, &injector);

    // The medium section: "MEDM" mark (u32), frame counter and burst count
    // (u64 each), then per burst start and end (i64 ns), drop_prob and
    // attenuation_db (f64).
    sim::ckpt::Writer mark, count, db, gain;
    mark.u32(0x4d45444du);
    count.u64(1);
    db.f64(3.0);
    gain.f64(-20.0);
    const std::size_t section = blob.find(mark.buffer());
    ASSERT_NE(section, std::string::npos);
    ASSERT_EQ(blob.substr(section + 12, 8), count.buffer());
    const std::size_t attenuation = section + 44;
    ASSERT_EQ(blob.substr(attenuation, 8), db.buffer());
    EXPECT_NE(exp::restore_scenario_checkpoint(blob).scenario, nullptr);

    blob.replace(attenuation, 8, gain.buffer());
    const std::string what =
        runtime_error_of([&] { exp::restore_scenario_checkpoint(blob); });
    EXPECT_NE(what.find("checkpoint: loss burst 0 rejected"), std::string::npos) << what;
    EXPECT_NE(what.find("attenuation_db -20"), std::string::npos) << what;
    EXPECT_NE(what.find("corrupt blob"), std::string::npos) << what;
}

/// The u64 at `at` in `blob` replaced by `value`.
std::string with_u64(const std::string& blob, std::size_t at, std::uint64_t value) {
    sim::ckpt::Writer v;
    v.u64(value);
    std::string patched = blob;
    patched.replace(at, 8, v.buffer());
    return patched;
}

/// Every count a blob carries is checked against the bytes left before
/// anything is allocated for it: a fault plan claiming 2^40 or 2^62 events
/// (std::bad_alloc and "vector::reserve" before the check) and a metric
/// series claiming 2^40 samples are rejected, naming the count and its byte
/// offset.
TEST(CheckpointFormat, RestoreRejectsCountsPastTheBlob) {
    core::Scenario prefix(fuzz_config());
    fault::FaultInjector injector(prefix, fuzz_plan());
    injector.arm();
    prefix.run_until(sim::TimePoint::from_seconds(10.0));
    const std::string blob = exp::save_scenario_checkpoint(prefix, &injector);
    const auto table = prefix.pdf_table_ptr();

    // The plan section: "PLAN" mark (u32), then the u64 event count.
    sim::ckpt::Writer mark;
    mark.u32(0x504c414eu);
    const std::size_t plan = blob.find(mark.buffer());
    ASSERT_NE(plan, std::string::npos);
    ASSERT_EQ(blob.find(mark.buffer(), plan + 1), std::string::npos);
    const std::size_t at = plan + 4;
    ASSERT_EQ(blob.substr(at, 8), with_u64(std::string(8, '\0'), 0, 3));
    EXPECT_NE(exp::restore_scenario_checkpoint(blob, table).scenario, nullptr);
    for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
        const std::string what = runtime_error_of(
            [&] { exp::restore_scenario_checkpoint(with_u64(blob, at, count), table); });
        EXPECT_EQ(what.rfind("checkpoint: count " + std::to_string(count) + " at byte " +
                                 std::to_string(at) + ": more elements than the ",
                             0),
                  0u)
            << what;
    }

    metrics::TimeSeries series;
    series.push(sim::TimePoint::from_seconds(1.0), 2.5);
    series.push(sim::TimePoint::from_seconds(2.0), 3.5);
    sim::ckpt::Writer w;
    w(series);
    const std::string bytes = with_u64(w.buffer(), 0, std::uint64_t{1} << 40);
    metrics::TimeSeries back;
    sim::ckpt::Reader r(bytes);
    EXPECT_EQ(runtime_error_of([&] { r(back); }),
              "checkpoint: count 1099511627776 at byte 0: more elements than the " +
                  std::to_string(bytes.size() - 8) + " bytes left can hold — corrupt blob");
}

/// A scenario keeps one error series per robot, indexed by agent id, so a
/// blob whose series count differs from the robot count is rejected even
/// when the rest of its bytes are consistent. A shorter list used to
/// restore and then write past its end at the next sample.
TEST(CheckpointFormat, RestoreRejectsSeriesCountOtherThanRobots) {
    const core::ScenarioConfig config = fuzz_config();
    core::Scenario prefix(config);
    prefix.run_until(sim::TimePoint::from_seconds(30.0));
    const std::string blob = exp::save_scenario_checkpoint(prefix);
    const auto table = prefix.pdf_table_ptr();

    const std::vector<metrics::TimeSeries> series = prefix.result().node_error;
    ASSERT_EQ(series.size(), static_cast<std::size_t>(config.num_robots));
    sim::ckpt::Writer all, cut;
    all(series);
    cut(std::vector<metrics::TimeSeries>(series.begin(), series.begin() + 4));
    const std::size_t at = blob.find(all.buffer());
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(blob.find(all.buffer(), at + 1), std::string::npos);
    EXPECT_NE(exp::restore_scenario_checkpoint(blob, table).scenario, nullptr);

    std::string bad = blob;
    bad.replace(at, all.buffer().size(), cut.buffer());
    EXPECT_EQ(runtime_error_of([&] { exp::restore_scenario_checkpoint(bad, table); }),
              "checkpoint: count 4 at byte " + std::to_string(at) + ": the live object holds " +
                  std::to_string(config.num_robots) + " — corrupt blob");
}

/// save_config's bytes key fork-group discovery in exp::run_sweep, and they
/// are all a restore knows of the config. So every estimator setting must
/// change them and come back from load_scenario_config: a forgotten field
/// would merge sweep cells that differ only in it and reset it on restore.
TEST(CheckpointFormat, ScenarioConfigRoundTripsEstimatorSettings) {
    const auto bytes_of = [](const core::ScenarioConfig& c) {
        sim::ckpt::Writer w;
        core::save_config(w, c);
        return w.take();
    };
    // One non-default value per setting.
    const std::vector<std::pair<const char*, std::function<void(core::ScenarioConfig&)>>>
        settings = {
            {"estimator", [](auto& c) { c.estimator = est::Backend::LinCvx; }},
            {"technique",
             [](auto& c) { c.tuning.technique = core::RfTechnique::LeastSquares; }},
            {"min_beacons_for_fix", [](auto& c) { c.tuning.min_beacons_for_fix = 4; }},
            {"beacon_rssi_cutoff_dbm",
             [](auto& c) { c.tuning.beacon_rssi_cutoff_dbm = -85.5; }},
            {"use_non_gaussian_bins",
             [](auto& c) { c.tuning.use_non_gaussian_bins = false; }},
            {"ekf_q_displacement_frac",
             [](auto& c) { c.tuning.ekf_q_displacement_frac = 0.25; }},
            {"ekf_q_floor_var_per_s",
             [](auto& c) { c.tuning.ekf_q_floor_var_per_s = 1.5; }},
            {"ekf_gate_sigmas", [](auto& c) { c.tuning.ekf_gate_sigmas = 3.5; }},
            {"ekf_min_range_sigma_m",
             [](auto& c) { c.tuning.ekf_min_range_sigma_m = 1.25; }},
            {"ekf_reject_inflation_var",
             [](auto& c) { c.tuning.ekf_reject_inflation_var = 6.0; }},
            {"ekf_missed_window_var",
             [](auto& c) { c.tuning.ekf_missed_window_var = 7.5; }},
            {"lincvx_min_beacons", [](auto& c) { c.tuning.lincvx_min_beacons = 2; }},
        };
    const std::string default_bytes = bytes_of(core::ScenarioConfig{});
    core::ScenarioConfig all;
    for (const auto& [name, set] : settings) {
        core::ScenarioConfig one;
        set(one);
        EXPECT_NE(bytes_of(one), default_bytes) << name << " leaves the bytes unchanged";
        set(all);
    }

    const std::string blob = bytes_of(all);
    sim::ckpt::Reader r(blob);
    const core::ScenarioConfig back = core::load_scenario_config(r);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(back.estimator, all.estimator);
    const est::Config& got = back.tuning;
    const est::Config& want = all.tuning;
    EXPECT_EQ(got.technique, want.technique);
    EXPECT_EQ(got.min_beacons_for_fix, want.min_beacons_for_fix);
    EXPECT_EQ(got.beacon_rssi_cutoff_dbm, want.beacon_rssi_cutoff_dbm);
    EXPECT_EQ(got.use_non_gaussian_bins, want.use_non_gaussian_bins);
    EXPECT_EQ(got.ekf_q_displacement_frac, want.ekf_q_displacement_frac);
    EXPECT_EQ(got.ekf_q_floor_var_per_s, want.ekf_q_floor_var_per_s);
    EXPECT_EQ(got.ekf_gate_sigmas, want.ekf_gate_sigmas);
    EXPECT_EQ(got.ekf_min_range_sigma_m, want.ekf_min_range_sigma_m);
    EXPECT_EQ(got.ekf_reject_inflation_var, want.ekf_reject_inflation_var);
    EXPECT_EQ(got.ekf_missed_window_var, want.ekf_missed_window_var);
    EXPECT_EQ(got.lincvx_min_beacons, want.lincvx_min_beacons);
}

/// A blob's config section reaches the same validation as a config built
/// in code: a NaN innovation gate read back from a blob is rejected by name
/// instead of running with the gate silently off.
TEST(CheckpointFormat, RestoreRejectsNaNEstimatorTuning) {
    const double sentinel = 4.0625;  // exact in binary, found once in the blob
    core::ScenarioConfig config = fuzz_config();
    config.estimator = est::Backend::Ekf;
    config.tuning.ekf_gate_sigmas = sentinel;
    core::Scenario prefix(config);
    prefix.run_until(sim::TimePoint::from_seconds(10.0));
    std::string blob = exp::save_scenario_checkpoint(prefix);

    sim::ckpt::Writer gate, nan;
    gate.f64(sentinel);
    nan.f64(std::numeric_limits<double>::quiet_NaN());
    const std::size_t at = blob.find(gate.buffer());
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(blob.find(gate.buffer(), at + 1), std::string::npos);
    EXPECT_NE(exp::restore_scenario_checkpoint(blob).scenario, nullptr);

    blob.replace(at, 8, nan.buffer());
    try {
        exp::restore_scenario_checkpoint(blob);
        ADD_FAILURE() << "a NaN ekf_gate_sigmas restored";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("ekf_gate_sigmas"), std::string::npos)
            << e.what();
    }
}

/// Every restored config field is range-checked, not only the estimator
/// tuning: a blob whose config carries a NaN (or a negative sigma) in any of
/// these fields is rejected, naming the field's path, before a run is built
/// from it. Unchecked, a NaN clock skew keeps the run from finishing, a NaN
/// bitrate schedules a negative delay, and the rest run to the end on
/// meaningless numbers. The scenario is saved at t = 0 and never run, and
/// the restore reuses one PDF table, so no case calibrates or simulates.
TEST(CheckpointFormat, RestoreRejectsOutOfRangeConfigFields) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    struct Case {
        const char* path;
        double bad;
        void (*set)(core::ScenarioConfig&, double);
    };
    const Case cases[] = {
        {"clock_skew_sigma_s", nan, [](auto& c, double v) { c.clock_skew_sigma_s = v; }},
        {"mac.bitrate_bps", nan, [](auto& c, double v) { c.mac.bitrate_bps = v; }},
        {"channel.exponent_near", nan,
         [](auto& c, double v) { c.channel.exponent_near = v; }},
        {"channel.tx_power_dbm", nan, [](auto& c, double v) { c.channel.tx_power_dbm = v; }},
        {"medium.capture_margin_db", nan,
         [](auto& c, double v) { c.medium.capture_margin_db = v; }},
        {"power.tx_mw", nan, [](auto& c, double v) { c.power.tx_mw = v; }},
        {"odometry.velocity_bias_sigma", nan,
         [](auto& c, double v) { c.odometry.velocity_bias_sigma = v; }},
        {"multicast.lifetime_range_m", nan,
         [](auto& c, double v) { c.multicast.lifetime_range_m = v; }},
        {"blind_beacon_max_spread_m", nan,
         [](auto& c, double v) { c.blind_beacon_max_spread_m = v; }},
        {"anchor_position_sigma_m", -1.0,
         [](auto& c, double v) { c.anchor_position_sigma_m = v; }},
        // Positive, but too small for `d += step` to advance the sweep.
        {"calibration.distance_step_m", 1e-300,
         [](auto& c, double v) { c.calibration.distance_step_m = v; }},
    };
    const double sentinel = 0.4140625;  // exact in binary, valid for every case
    const auto table = core::Scenario(fuzz_config()).pdf_table_ptr();
    for (const Case& k : cases) {
        core::ScenarioConfig config = fuzz_config();
        k.set(config, sentinel);
        std::string blob = exp::save_scenario_checkpoint(core::Scenario(config, table));

        sim::ckpt::Writer good, bad;
        good.f64(sentinel);
        bad.f64(k.bad);
        const std::size_t at = blob.find(good.buffer());
        ASSERT_NE(at, std::string::npos) << k.path;
        ASSERT_EQ(blob.find(good.buffer(), at + 1), std::string::npos) << k.path;
        blob.replace(at, 8, bad.buffer());
        try {
            exp::restore_scenario_checkpoint(blob, table);
            ADD_FAILURE() << k.path << " = " << k.bad << " restored";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(std::string("ScenarioConfig: ") + k.path +
                                                 " must be "),
                      std::string::npos)
                << e.what();
        }
    }
}

/// A restored channel whose influence threshold no finite distance reaches
/// is rejected by name, like a fresh one: each field is in range on its own,
/// but the culling radius they imply does not exist.
TEST(CheckpointFormat, RestoreRejectsUnreachableInfluenceRange) {
    const double sentinel = 7.75;  // exact in binary, found once in the blob
    core::ScenarioConfig config = fuzz_config();
    config.channel.shadowing_clamp_sigmas = sentinel;
    const auto table = core::Scenario(fuzz_config()).pdf_table_ptr();
    std::string blob = exp::save_scenario_checkpoint(core::Scenario(config, table));

    sim::ckpt::Writer good, bad;
    good.f64(sentinel);
    bad.f64(1e6);
    const std::size_t at = blob.find(good.buffer());
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(blob.find(good.buffer(), at + 1), std::string::npos);
    blob.replace(at, 8, bad.buffer());
    try {
        exp::restore_scenario_checkpoint(blob, table);
        ADD_FAILURE() << "shadowing_clamp_sigmas = 1e6 restored";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("shadowing_clamp_sigmas"), std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------------------- field lists

/// The bytes of save_config for `c`.
template <typename Config>
std::string config_bytes(const Config& c) {
    sim::ckpt::Writer w;
    core::save_config(w, c);
    return w.take();
}

core::ScenarioConfig load_config(sim::ckpt::Reader& r, const core::ScenarioConfig&) {
    return core::load_scenario_config(r);
}
core::SwarmConfig load_config(sim::ckpt::Reader& r, const core::SwarmConfig&) {
    return core::load_swarm_config(r);
}

/// Calls visit(path, rule, leaf) for every leaf field of S's list, nested
/// lists included; leaf(root) is the field's member inside a Root.
template <typename Root, typename S, typename Get, typename Visit>
void for_each_leaf(const std::string& prefix, Get get, Visit& visit) {
    const auto one = [&](const auto& f) {
        using T = std::remove_reference_t<decltype(std::declval<S&>().*f.member)>;
        const auto leaf = [get, member = f.member](Root& root) -> T& {
            return get(root).*member;
        };
        const std::string path = prefix + std::string(f.name);
        if constexpr (sim::fields::Listed<T>) {
            for_each_leaf<Root, T>(path + ".", leaf, visit);
        } else {
            visit(path, f.rule, leaf);
        }
    };
    std::apply([&](const auto&... f) { (one(f), ...); }, S::fields());
}

/// Probe values for a field of type T whose default is `def`: the first one
/// `rule` admits that differs from `def` is the field's valid non-default
/// value, and every one `rule` rejects must make validate() throw.
template <typename T>
std::vector<T> probes(const T& def, const sim::fields::Rule& rule) {
    if constexpr (std::is_same_v<T, bool>) {
        return {!def};
    } else if constexpr (std::is_enum_v<T>) {
        const auto last = static_cast<std::underlying_type_t<T>>(rule.hi);
        return {static_cast<T>(last), static_cast<T>(0), static_cast<T>(last + 1)};
    } else if constexpr (std::is_same_v<T, sim::Duration>) {
        const sim::Duration ms = sim::Duration::millis(1);
        return {def + ms, ms, sim::Duration::zero(), sim::Duration::nanos(-1)};
    } else if constexpr (std::is_floating_point_v<T>) {
        const double inf = std::numeric_limits<double>::infinity();
        std::vector<T> v = {def + 0.5, def * 2.0, 0.5, -0.5, inf, -inf,
                            std::numeric_limits<double>::quiet_NaN()};
        for (const double bound : {rule.lo, rule.hi}) {
            if (std::isfinite(bound)) v.insert(v.end(), {bound - 1.0, bound, bound + 1.0});
        }
        return v;
    } else {
        std::vector<T> v(1, static_cast<T>(def + 1));
        for (const double bound : {rule.lo, rule.hi}) {
            if (!std::isfinite(bound)) continue;
            for (const double step : {-1.0, 0.0, 1.0}) v.push_back(static_cast<T>(bound + step));
        }
        return v;
    }
}

template <typename T>
bool same(const T& a, const T& b) {
    if constexpr (std::is_floating_point_v<T>) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    } else {
        return a == b;
    }
}

/// Walks every leaf of Root's field list. A valid non-default value changes
/// save_config's bytes and loads back equal; every probe the field's rule
/// rejects makes validate() throw naming "<root>: <path> must be".
template <typename Root>
void expect_every_leaf_listed(const char* root_name, int expected_leaves) {
    const std::string default_bytes = config_bytes(Root{});
    int leaves = 0;
    auto visit = [&](const std::string& path, const sim::fields::Rule& rule, auto leaf) {
        ++leaves;
        Root root;
        using T = std::remove_reference_t<decltype(leaf(root))>;
        const T def = leaf(root);
        bool changed = false;
        for (const T& value : probes(def, rule)) {
            leaf(root) = value;
            if (!rule.admits(sim::fields::detail::as_double(value))) {
                std::string what;
                try {
                    root.validate();
                } catch (const std::invalid_argument& e) {
                    what = e.what();
                }
                EXPECT_NE(what.find(std::string(root_name) + ": " + path + " must be "),
                          std::string::npos)
                    << path << " took a value its rule rejects: '" << what << "'";
            } else if (!changed && !same(value, def)) {
                changed = true;
                EXPECT_NO_THROW(sim::fields::check(root, root_name)) << path;
                const std::string bytes = config_bytes(root);
                EXPECT_NE(bytes, default_bytes) << path << " leaves the bytes unchanged";
                sim::ckpt::Reader r(bytes);
                Root back = load_config(r, root);
                EXPECT_TRUE(r.at_end()) << path;
                EXPECT_TRUE(same(leaf(back), value)) << path << " does not load back";
                EXPECT_EQ(config_bytes(back), bytes) << path;
            }
            leaf(root) = def;
        }
        EXPECT_TRUE(changed) << path << ": no valid non-default probe";
    };
    for_each_leaf<Root, Root>("", [](Root& r) -> Root& { return r; }, visit);
    EXPECT_EQ(leaves, expected_leaves);
}

TEST(ConfigFields, EveryScenarioLeafRoundTripsAndIsRangeChecked) {
    // 28 own fields plus est::Config 11, odometry 4, channel 13, calibration
    // 8, power 6, MAC 5, medium 4 and multicast 13.
    expect_every_leaf_listed<core::ScenarioConfig>("ScenarioConfig", 92);
}

TEST(ConfigFields, EverySwarmLeafRoundTripsAndIsRangeChecked) {
    // 14 own fields plus channel 13, medium 4 and power 6.
    expect_every_leaf_listed<core::SwarmConfig>("SwarmConfig", 37);
}

/// FNV-1a (64 bit) of `bytes`.
std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : bytes) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return h;
}

/// The config sections' layout, pinned: the size and FNV-1a of save_config
/// for the default ScenarioConfig and SwarmConfig, for the `all` config of
/// ScenarioConfigRoundTripsEstimatorSettings, and of save_calibration_inputs,
/// as format version 4 lays them out. A deliberate layout change bumps
/// sim::ckpt::kFormatVersion and re-records these values.
TEST(CheckpointFormat, ConfigLayoutIsPinned) {
    EXPECT_EQ(sim::ckpt::kFormatVersion, 4u);
    core::ScenarioConfig all;
    all.estimator = est::Backend::LinCvx;
    all.tuning.technique = core::RfTechnique::LeastSquares;
    all.tuning.min_beacons_for_fix = 4;
    all.tuning.beacon_rssi_cutoff_dbm = -85.5;
    all.tuning.use_non_gaussian_bins = false;
    all.tuning.ekf_q_displacement_frac = 0.25;
    all.tuning.ekf_q_floor_var_per_s = 1.5;
    all.tuning.ekf_gate_sigmas = 3.5;
    all.tuning.ekf_min_range_sigma_m = 1.25;
    all.tuning.ekf_reject_inflation_var = 6.0;
    all.tuning.ekf_missed_window_var = 7.5;
    all.tuning.lincvx_min_beacons = 2;
    sim::ckpt::Writer calibration;
    core::save_calibration_inputs(calibration, all);

    const std::pair<std::string, std::uint64_t> pins[] = {
        {config_bytes(core::ScenarioConfig{}), 0x508222eaf71dd7ebull},
        {config_bytes(core::SwarmConfig{}), 0x719eb877a76b8233ull},
        {config_bytes(all), 0x78e2d035aef48054ull},
        {calibration.buffer(), 0x09f1ceeb5693489bull},
    };
    const std::size_t sizes[] = {610, 271, 610, 161};
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        EXPECT_EQ(pins[i].first.size(), sizes[i]) << "pin " << i;
        EXPECT_EQ(fnv1a(pins[i].first), pins[i].second) << "pin " << i;
    }
}

/// The bytes each packet appends when `packets` are written in order into
/// one blob: an inner packet several of them share is written in full by
/// the first and as its id by the rest.
std::vector<std::string> packet_bytes(const std::vector<net::Packet>& packets) {
    sim::ckpt::Writer w;
    std::vector<std::string> out;
    for (const net::Packet& p : packets) {
        const std::size_t before = w.buffer().size();
        w(p);
        out.push_back(w.buffer().substr(before));
    }
    return out;
}

/// The packet layout, pinned: the size and FNV-1a of a hand-built packet
/// for each of the nine payload alternatives, and of a second McastData
/// packet sharing the first one's inner SYNC. No blob in the golden suite
/// carries the Geo* or Test payloads, so only this test pins them.
TEST(CheckpointFormat, PacketLayoutIsPinned) {
    const auto packet = [](net::Port port, std::size_t bytes, net::Payload payload) {
        net::Packet p;
        p.src = 17;
        p.port = port;
        p.payload_bytes = bytes;
        p.payload = std::move(payload);
        return p;
    };
    const geom::Vec2 a{12.5, -3.25};
    const geom::Vec2 b{-7.75, 40.0};
    const auto sync = std::make_shared<const net::Packet>(packet(
        net::Port::McastData, 24,
        net::SyncPayload{100.0, 10.0, 9, sim::TimePoint::from_seconds(300.0)}));
    const std::vector<net::Packet> packets = {
        packet(net::Port::Beacon, 48, net::BeaconPayload{3, a, 11, 2}),
        packet(net::Port::McastData, 24,
               net::SyncPayload{50.0, 5.0, 4, sim::TimePoint::from_seconds(150.0)}),
        packet(net::Port::McastControl, 64,
               net::JoinQueryPayload{1, 0, 6, 21, 3, geom::MotionState{a, b, 2.5}, 8.75}),
        packet(net::Port::McastControl, 32, net::JoinReplyPayload{1, 0, 6, 22, 21}),
        packet(net::Port::McastData, 40, net::McastDataPayload{1, 0, 7, 23, sync}),
        packet(net::Port::GeoHello, 16, net::GeoHelloPayload{b}),
        packet(net::Port::GeoData, 96,
               net::GeoDataPayload{4, 30, a, 5, 61, 31, 32, net::GeoMode::Face, b,
                                   0x0123456789abcdefull}),
        packet(net::Port::GeoData, 8, net::GeoAckPayload{4, 5, 31}),
        packet(net::Port::Test, 1, net::TestPayload{0xfeedfacecafebeefull}),
        packet(net::Port::McastData, 40, net::McastDataPayload{1, 0, 7, 24, sync}),
    };
    const std::vector<std::string> bytes = packet_bytes(packets);
    const std::pair<std::size_t, std::uint64_t> pins[] = {
        {39, 0x4469bafe004e565full}, {42, 0x6615e90167059558ull},
        {79, 0xb67abad754193707ull}, {34, 0x5bcaa6edbf9fefa0ull},
        {76, 0xd3fd3e8a23e4473dull}, {30, 0x9cd33b80bf5a1e33ull},
        {76, 0x2aa45a542a58391eull}, {26, 0xa8ed9695aeaed0d3ull},
        {22, 0xbb03507773cf5f90ull}, {34, 0x9dba5a5418872014ull},
    };
    ASSERT_EQ(bytes.size(), std::size(pins));
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        EXPECT_EQ(bytes[i].size(), pins[i].first) << "packet " << i;
        EXPECT_EQ(fnv1a(bytes[i]), pins[i].second) << "packet " << i;
    }
}

/// A kernel section is rejected, naming the event, when a pending event is
/// due before the restored clock (it would fire with time running
/// backwards), or when the seqs break the order save_kernel writes them in:
/// strictly increasing, all below the restored next seq.
TEST(CheckpointFormat, KernelRejectsEventsThatRunTimeBackwards) {
    const sim::EventTag tick = sim::make_tag(sim::EventKind::kScenarioTick);
    sim::Simulator straight;
    straight.schedule_at(sim::TimePoint::from_nanos(9'000), [] {}, tick);   // seq 1
    straight.schedule_at(sim::TimePoint::from_nanos(9'500), [] {}, tick);   // seq 2
    straight.run_until(sim::TimePoint::from_nanos(6'000));                  // next seq 3
    sim::ckpt::Writer w;
    straight.save_kernel(w);
    const std::string blob = w.take();

    sim::ckpt::CallbackRegistry registry;
    registry.add(sim::EventKind::kScenarioTick,
                 [](const sim::EventTag&) { return sim::InplaceCallback([] {}); });
    const auto load = [&](const std::string& b) {
        return runtime_error_of([&] {
            sim::Simulator restored;
            sim::ckpt::Reader r(b);
            restored.load_kernel(r, registry);
        });
    };
    EXPECT_EQ(load(blob), "");

    // An event record is (time, seq, tag): find each by its unique time.
    const auto time_at = [&](std::int64_t ns) {
        sim::ckpt::Writer v;
        v.i64(ns);
        const std::size_t at = blob.find(v.buffer());
        EXPECT_NE(at, std::string::npos);
        EXPECT_EQ(blob.find(v.buffer(), at + 1), std::string::npos);
        return at;
    };
    const auto patched = [&](std::size_t at, std::uint64_t value) {
        sim::ckpt::Writer v;
        v.u64(value);
        std::string b = blob;
        b.replace(at, 8, v.buffer());
        return b;
    };
    const std::size_t first = time_at(9'000);
    const std::size_t second = time_at(9'500);
    EXPECT_EQ(load(patched(first, 1'000)),
              "checkpoint: kernel event 0 is due at 1000 ns, before the restored "
              "clock 6000 ns — corrupt blob");
    EXPECT_EQ(load(patched(second + 8, 1)),
              "checkpoint: kernel event 1 has seq 1, not above the previous event's 1 "
              "— corrupt blob");
    EXPECT_EQ(load(patched(first + 8, 3)),
              "checkpoint: kernel event 0 has seq 3, not below the restored next seq 3 "
              "— corrupt blob");
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

/// Every strict prefix of a scenario blob fails to restore with
/// std::runtime_error, whichever section the cut lands in: 200 seeded cut
/// lengths, plus a cut at each section mark. The restores share the
/// prefix's PDF table, so nothing calibrates.
TEST(CheckpointFuzz, EveryTruncationThrows) {
    core::Scenario prefix(fuzz_config());
    fault::FaultInjector injector(prefix, fuzz_plan());
    injector.arm();
    prefix.run_until(sim::TimePoint::from_seconds(35.0));
    const std::string blob = exp::save_scenario_checkpoint(prefix, &injector);
    const auto table = prefix.pdf_table_ptr();

    std::vector<std::size_t> cuts;
    std::mt19937_64 fuzz(2027);
    std::uniform_int_distribution<std::size_t> pick(0, blob.size() - 1);
    for (int i = 0; i < 200; ++i) cuts.push_back(pick(fuzz));
    // Config, plan, scenario, medium, radio, multicast, agent, kernel, pool,
    // scenario-end and fault-injector marks.
    for (const std::uint32_t section :
         {0x53434647u, 0x504c414eu, 0x53434e4fu, 0x4d45444du, 0x4f494452u, 0x4d435354u,
          0x41474e54u, 0x4b524e4cu, 0x4c4f4f50u, 0x4f4e4353u, 0x46414c54u}) {
        sim::ckpt::Writer mark;
        mark.u32(section);
        const std::size_t first = blob.find(mark.buffer());
        EXPECT_NE(first, std::string::npos) << std::hex << section;
        for (std::size_t at = first; at != std::string::npos;
             at = blob.find(mark.buffer(), at + 1)) {
            cuts.push_back(at);
        }
    }
    for (const std::size_t cut : cuts) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut) + " of " +
                     std::to_string(blob.size()));
        EXPECT_THROW(exp::restore_scenario_checkpoint(blob.substr(0, cut), table),
                     std::runtime_error);
    }
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

/// arm_forked() on a restored fault-free prefix reproduces the straight run
/// for a plan holding every fault kind: each kind's kernel events (strikes,
/// recoveries, timed odometry restores, battery watches) must take exactly
/// the seqs the straight run's arm() gave them, or the FIFO order of
/// same-instant events, the event count or peak_pending drifts.
TEST(CheckpointFork, ArmForkedMatchesStraightRunForEveryFaultKind) {
    const core::ScenarioConfig config = fuzz_config();
    const fault::FaultPlan plan = fault::FaultPlan::parse(
        "crash@70:node=7;reboot@40+20:node=6;outage@45+15:nodes=8-9;"
        "loss@50+25:p=0.5,db=3;drift@35:node=9,s=0.2;"
        "odo@42+30:nodes=8-9,scale=4;battery@36:node=5,budget_mj=50");

    core::Scenario straight(config);
    fault::FaultInjector straight_injector(straight, plan);
    straight_injector.arm();
    straight.enable_position_trace(sim::Duration::seconds(5.0));
    straight.run();
    const std::string want = scenario_digest(straight.result(), straight);

    core::Scenario prefix(config);
    prefix.enable_position_trace(sim::Duration::seconds(5.0));
    prefix.run_until(sim::TimePoint::origin() + sim::Duration::seconds(30.0));
    sim::ckpt::Writer w;
    prefix.save_state(w);
    const std::string blob = w.take();

    core::Scenario forked(config, prefix.pdf_table_ptr());
    sim::ckpt::Reader r(blob);
    forked.load_state(r);
    r.expect_end();
    fault::FaultInjector injector(forked, plan);
    ASSERT_TRUE(injector.arm_forked());
    forked.run();
    EXPECT_EQ(scenario_digest(forked.result(), forked), want);

    const fault::FaultInjector::Stats& s = injector.stats();
    EXPECT_GT(s.crashes, 0u);
    EXPECT_GT(s.reboots, 0u);
    EXPECT_GT(s.outages, 0u);
    EXPECT_GT(s.loss_bursts, 0u);
    EXPECT_GT(s.clock_drifts, 0u);
    EXPECT_GT(s.odometry_degrades, 0u);
    EXPECT_GT(s.battery_deaths, 0u);
}

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

/// One replication's fork prefixes under two backends calibrate the same
/// PDF table (same seed, channel and calibration settings), so a 2-backend x
/// 2-replication sweep over a baseline and one faulted plan calibrates once
/// per replication: 2 times, not 4. The shared table changes no record.
TEST(CheckpointFork, PrefixesShareOneCalibrationPerSeed) {
    core::ScenarioConfig config = fuzz_config();
    config.duration = sim::Duration::seconds(90.0);
    std::vector<core::ScenarioConfig> configs;
    std::vector<fault::FaultPlan> plans;
    for (const est::Backend backend : {est::Backend::Ekf, est::Backend::LinCvx}) {
        config.estimator = backend;
        configs.push_back(config);
        plans.emplace_back();
        configs.push_back(config);
        plans.push_back(fault::FaultPlan::parse("crash@60:node=7"));
    }

    exp::ReplicationOptions opt;
    opt.n_reps = 2;
    opt.n_threads = 2;
    opt.fork = false;
    const std::vector<exp::ReplicationSet> want = exp::run_sweep(configs, plans, opt);

    opt.fork = true;
    obs::Profiler::instance().reset();
    obs::Profiler::set_enabled(true);
    const std::vector<exp::ReplicationSet> got = exp::run_sweep(configs, plans, opt);
    obs::Profiler::set_enabled(false);
    std::uint64_t calibrations = 0;
    std::uint64_t prefixes = 0;
    for (const obs::Profiler::Entry& e : obs::Profiler::instance().entries()) {
        if (e.name == "scenario.calibrate") calibrations = e.calls;
        if (e.name == "exp.fork_prefix") prefixes = e.calls;
    }
    obs::Profiler::instance().reset();
    EXPECT_EQ(prefixes, 4u);
    EXPECT_EQ(calibrations, 2u);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].records.size(), want[i].records.size());
        for (std::size_t k = 0; k < want[i].records.size(); ++k) {
            EXPECT_EQ(got[i].records[k].avg_error_m, want[i].records[k].avg_error_m);
            EXPECT_EQ(got[i].records[k].executed_events,
                      want[i].records[k].executed_events);
        }
        EXPECT_EQ(got[i].counter_totals, want[i].counter_totals);
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
