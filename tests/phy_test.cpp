#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

#include "phy/channel.hpp"
#include "phy/loss.hpp"
#include "phy/pdf_table.hpp"
#include "sim/random.hpp"

namespace cocoa::phy {
namespace {

using cocoa::sim::RandomStream;
using cocoa::sim::RngManager;

TEST(Channel, MeanRssiMonotonicallyDecreasing) {
    const Channel ch;
    double prev = ch.mean_rssi_dbm(1.0);
    for (double d = 2.0; d <= 300.0; d += 1.0) {
        const double cur = ch.mean_rssi_dbm(d);
        EXPECT_LT(cur, prev) << "at d=" << d;
        prev = cur;
    }
}

TEST(Channel, CalibratedToPaperAnchors) {
    const Channel ch;
    // The paper: RSSI values down to -80 dBm correspond to distances up to
    // ~40 m, and 802.11b cards reach beyond 150 m.
    EXPECT_NEAR(ch.mean_rssi_dbm(40.0), -80.0, 1.0);
    EXPECT_GT(ch.max_range_m(), 150.0);
    EXPECT_LT(ch.max_range_m(), 200.0);
}

TEST(Channel, BelowReferenceDistanceClamps) {
    const Channel ch;
    EXPECT_DOUBLE_EQ(ch.mean_rssi_dbm(0.1), ch.mean_rssi_dbm(1.0));
}

TEST(Channel, SigmaRampsBeyondBreakpoint) {
    const Channel ch;
    const auto& cfg = ch.config();
    EXPECT_DOUBLE_EQ(ch.shadowing_sigma_db(10.0), cfg.shadowing_sigma_near_db);
    EXPECT_DOUBLE_EQ(ch.shadowing_sigma_db(cfg.breakpoint_m), cfg.shadowing_sigma_near_db);
    EXPECT_DOUBLE_EQ(ch.shadowing_sigma_db(1000.0), cfg.shadowing_sigma_far_db);
}

TEST(Channel, FadeOnlyBeyondBreakpoint) {
    const Channel ch;
    EXPECT_DOUBLE_EQ(ch.fade_mean_db(10.0), 0.0);
    EXPECT_DOUBLE_EQ(ch.fade_mean_db(40.0), 0.0);
    EXPECT_GT(ch.fade_mean_db(50.0), 0.0);
    EXPECT_DOUBLE_EQ(ch.fade_mean_db(500.0), ch.config().fade_mean_far_db);
    // Ramp is monotone.
    EXPECT_LT(ch.fade_mean_db(45.0), ch.fade_mean_db(55.0));
}

TEST(Channel, SampleNearFieldIsUnbiased) {
    const Channel ch;
    RandomStream rng(1);
    double sum = 0.0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) sum += ch.sample_rssi_dbm(20.0, rng);
    EXPECT_NEAR(sum / kN, ch.mean_rssi_dbm(20.0), 0.2);
}

TEST(Channel, SampleFarFieldBiasedDownByFades) {
    const Channel ch;
    RandomStream rng(1);
    double sum = 0.0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) sum += ch.sample_rssi_dbm(100.0, rng);
    // Mean sample = path-loss mean - fade mean.
    EXPECT_NEAR(sum / kN, ch.mean_rssi_dbm(100.0) - ch.fade_mean_db(100.0), 0.5);
}

TEST(Channel, ThresholdHelpers) {
    const Channel ch;
    EXPECT_TRUE(ch.decodable(ch.config().rx_sensitivity_dbm));
    EXPECT_FALSE(ch.decodable(ch.config().rx_sensitivity_dbm - 0.1));
    EXPECT_TRUE(ch.sensed(ch.config().carrier_sense_dbm));
    EXPECT_FALSE(ch.sensed(ch.config().carrier_sense_dbm - 0.1));
    EXPECT_GT(ch.carrier_sense_range_m(), ch.max_range_m());
}

TEST(Channel, RangeInversionConsistent) {
    const Channel ch;
    EXPECT_NEAR(ch.mean_rssi_dbm(ch.max_range_m()), ch.config().rx_sensitivity_dbm, 0.01);
}

TEST(Channel, InvalidConfigThrows) {
    ChannelConfig c;
    c.breakpoint_m = 0.5;  // <= ref distance
    EXPECT_THROW(Channel{c}, std::invalid_argument);
    c = ChannelConfig{};
    c.sigma_ramp_end_m = 10.0;  // < breakpoint
    EXPECT_THROW(Channel{c}, std::invalid_argument);
    c = ChannelConfig{};
    c.exponent_near = -1.0;
    EXPECT_THROW(Channel{c}, std::invalid_argument);
}

// --- PDF table / calibration ------------------------------------------------

class PdfTableFixture : public ::testing::Test {
  protected:
    static const PdfTable& table() {
        static const PdfTable t = PdfTable::calibrate(
            Channel{}, CalibrationConfig{}, RngManager(7).stream("calibration"));
        return t;
    }
};

TEST_F(PdfTableFixture, HasUsableBins) {
    EXPECT_GT(table().usable_bin_count(), 40u);
    EXPECT_LT(table().min_rssi_dbm(), -90);
    EXPECT_GT(table().max_rssi_dbm(), -45);
}

TEST_F(PdfTableFixture, GaussianRegimeBoundaryNearPaperValue) {
    // Paper: the Gaussian assumption holds "for signal strength values up to
    // -80dbm, which correspond to physical distances of up to 40 meters".
    const auto boundary = table().weakest_gaussian_rssi();
    ASSERT_TRUE(boundary.has_value());
    EXPECT_LE(*boundary, -74);
    EXPECT_GE(*boundary, -84);
    const DistancePdf* pdf = table().lookup(*boundary);
    ASSERT_NE(pdf, nullptr);
    EXPECT_NEAR(pdf->mean_m, 40.0, 12.0);
}

TEST_F(PdfTableFixture, Fig1aStrongBinIsGaussian) {
    // Fig. 1(a): RSSI = -52 dBm has a clean Gaussian distance PDF.
    const DistancePdf* pdf = table().lookup(-52.0);
    ASSERT_NE(pdf, nullptr);
    EXPECT_TRUE(pdf->gaussian_fit_ok);
    EXPECT_GT(pdf->mean_m, 2.0);
    EXPECT_LT(pdf->mean_m, 12.0);
    EXPECT_LT(pdf->sigma_m, 2.0);
}

TEST_F(PdfTableFixture, Fig1bWeakBinIsNotGaussian) {
    // Fig. 1(b): RSSI = -86 dBm can no longer be approximated by a Gaussian.
    const DistancePdf* pdf = table().lookup(-86.0);
    ASSERT_NE(pdf, nullptr);
    EXPECT_FALSE(pdf->gaussian_fit_ok);
    EXPECT_GT(pdf->sigma_m, 8.0);  // broad
}

TEST_F(PdfTableFixture, MeansMonotoneInRssi) {
    // Weaker signal => larger fitted distance, across the usable range.
    double prev = 0.0;
    for (int rssi = table().max_rssi_dbm(); rssi >= table().min_rssi_dbm(); --rssi) {
        const DistancePdf* pdf = table().lookup(rssi);
        if (pdf == nullptr || !pdf->gaussian_fit_ok) continue;
        EXPECT_GE(pdf->mean_m, prev - 0.5) << "at rssi=" << rssi;
        prev = std::max(prev, pdf->mean_m);
    }
}

TEST_F(PdfTableFixture, GaussianRegimeIsContiguous) {
    bool seen_fail = false;
    for (int rssi = table().max_rssi_dbm(); rssi >= table().min_rssi_dbm(); --rssi) {
        const DistancePdf* pdf = table().lookup(rssi);
        if (pdf == nullptr) continue;
        if (!pdf->gaussian_fit_ok) seen_fail = true;
        if (seen_fail) {
            EXPECT_FALSE(pdf->gaussian_fit_ok) << "regime not contiguous at " << rssi;
        }
    }
}

TEST_F(PdfTableFixture, LookupOutOfRangeIsNull) {
    EXPECT_EQ(table().lookup(0.0), nullptr);
    EXPECT_EQ(table().lookup(-200.0), nullptr);
}

TEST_F(PdfTableFixture, LookupRoundsToNearestBin) {
    const DistancePdf* a = table().lookup(-52.4);
    const DistancePdf* b = table().lookup(-52.0);
    EXPECT_EQ(a, b);
    const DistancePdf* c = table().lookup(-52.6);
    const DistancePdf* d = table().lookup(-53.0);
    EXPECT_EQ(c, d);
}

TEST_F(PdfTableFixture, DensityIntegratesToOne) {
    const DistancePdf* pdf = table().lookup(-60.0);
    ASSERT_NE(pdf, nullptr);
    double integral = 0.0;
    const double step = 0.01;
    for (double d = pdf->mean_m - 8.0 * pdf->sigma_m; d <= pdf->mean_m + 8.0 * pdf->sigma_m;
         d += step) {
        integral += pdf->density(d) * step;
    }
    EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST_F(PdfTableFixture, DensityPeaksAtMean) {
    const DistancePdf* pdf = table().lookup(-55.0);
    ASSERT_NE(pdf, nullptr);
    EXPECT_GT(pdf->density(pdf->mean_m), pdf->density(pdf->mean_m + pdf->sigma_m));
    EXPECT_NEAR(pdf->density(pdf->mean_m),
                1.0 / (pdf->sigma_m * std::sqrt(2.0 * 3.14159265358979323846)), 1e-9);
}

TEST_F(PdfTableFixture, FittedMeanTracksChannelInversion) {
    // For a strong RSSI r, the fitted mean distance should be close to the
    // deterministic inversion of the path-loss curve.
    const Channel ch;
    for (const int rssi : {-50, -60, -70}) {
        const DistancePdf* pdf = table().lookup(rssi);
        ASSERT_NE(pdf, nullptr);
        // Invert: find d with mean_rssi(d) == rssi (bisection).
        double lo = 1.0, hi = 200.0;
        for (int i = 0; i < 50; ++i) {
            const double mid = 0.5 * (lo + hi);
            (ch.mean_rssi_dbm(mid) > rssi ? lo : hi) = mid;
        }
        EXPECT_NEAR(pdf->mean_m, lo, std::max(1.0, 0.15 * lo)) << "rssi=" << rssi;
    }
}

TEST(PdfTable, CalibrationValidation) {
    const Channel ch;
    CalibrationConfig c;
    c.max_distance_m = 0.5;  // < min
    EXPECT_THROW(PdfTable::calibrate(ch, c, RandomStream(1)), std::invalid_argument);
    c = CalibrationConfig{};
    c.samples_per_distance = 0;
    EXPECT_THROW(PdfTable::calibrate(ch, c, RandomStream(1)), std::invalid_argument);
    c = CalibrationConfig{};
    c.distance_step_m = -1.0;
    EXPECT_THROW(PdfTable::calibrate(ch, c, RandomStream(1)), std::invalid_argument);
}

TEST(PdfTable, DeterministicForSameStream) {
    const Channel ch;
    const PdfTable a = PdfTable::calibrate(ch, {}, RandomStream(5));
    const PdfTable b = PdfTable::calibrate(ch, {}, RandomStream(5));
    ASSERT_EQ(a.bin_count(), b.bin_count());
    EXPECT_EQ(a.min_rssi_dbm(), b.min_rssi_dbm());
    for (std::size_t i = 0; i < a.bins().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.bins()[i].mean_m, b.bins()[i].mean_m);
        EXPECT_EQ(a.bins()[i].gaussian_fit_ok, b.bins()[i].gaussian_fit_ok);
    }
}

TEST(PdfTable, ThinBinsUnusable) {
    const Channel ch;
    CalibrationConfig c;
    c.samples_per_distance = 1;
    c.distance_step_m = 10.0;  // very sparse calibration
    c.min_bin_samples = 50;
    const PdfTable t = PdfTable::calibrate(ch, c, RandomStream(3));
    EXPECT_EQ(t.usable_bin_count(), 0u);
    EXPECT_EQ(t.lookup(-60.0), nullptr);
}

TEST(PdfTable, SaveLoadRoundTrip) {
    const Channel ch;
    const PdfTable original =
        PdfTable::calibrate(ch, {}, RngManager(7).stream("calibration"));
    std::stringstream buffer;
    original.save(buffer);
    const PdfTable restored = PdfTable::load(buffer);

    ASSERT_EQ(restored.bin_count(), original.bin_count());
    EXPECT_EQ(restored.min_rssi_dbm(), original.min_rssi_dbm());
    EXPECT_EQ(restored.usable_bin_count(), original.usable_bin_count());
    EXPECT_EQ(restored.weakest_gaussian_rssi(), original.weakest_gaussian_rssi());
    for (std::size_t i = 0; i < original.bins().size(); ++i) {
        EXPECT_DOUBLE_EQ(restored.bins()[i].mean_m, original.bins()[i].mean_m);
        EXPECT_DOUBLE_EQ(restored.bins()[i].sigma_m, original.bins()[i].sigma_m);
        EXPECT_EQ(restored.bins()[i].gaussian_fit_ok, original.bins()[i].gaussian_fit_ok);
        EXPECT_EQ(restored.bins()[i].sample_count, original.bins()[i].sample_count);
    }
    // Lookups behave identically, including the unusable-bin rule.
    for (int rssi = -110; rssi <= -30; ++rssi) {
        const auto* a = original.lookup(rssi);
        const auto* b = restored.lookup(rssi);
        ASSERT_EQ(a == nullptr, b == nullptr) << "rssi " << rssi;
        if (a != nullptr) {
            EXPECT_DOUBLE_EQ(a->mean_m, b->mean_m);
        }
    }
}

TEST(PdfTable, LoadRejectsGarbage) {
    std::stringstream bad1("not-a-table 1\n");
    EXPECT_THROW(PdfTable::load(bad1), std::invalid_argument);
    std::stringstream bad2("cocoa-pdf-table 2\n");
    EXPECT_THROW(PdfTable::load(bad2), std::invalid_argument);
    std::stringstream bad3("cocoa-pdf-table 1\n-90 5 50\n1.0 2.0 1 60\n");  // truncated
    EXPECT_THROW(PdfTable::load(bad3), std::invalid_argument);
    std::stringstream bad4("cocoa-pdf-table 1\n-90 0 50\n");  // zero bins
    EXPECT_THROW(PdfTable::load(bad4), std::invalid_argument);
}

// Boundary stability across calibration seeds: the Gaussian regime edge must
// stay in the paper's neighbourhood regardless of the measurement run.
class CalibrationSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalibrationSeedSweep, RegimeBoundaryStable) {
    const PdfTable t =
        PdfTable::calibrate(Channel{}, {}, RngManager(GetParam()).stream("calibration"));
    const auto boundary = t.weakest_gaussian_rssi();
    ASSERT_TRUE(boundary.has_value());
    EXPECT_LE(*boundary, -72);
    EXPECT_GE(*boundary, -86);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalibrationSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 11u, 23u));

// --- shadowing clamp and max-influence range --------------------------------

/// A rigged generator satisfying the sample_rssi_dbm template contract,
/// returning a fixed (huge) shadowing deviate and zero fades.
struct RiggedRng {
    double gaussian_value = 0.0;
    double gaussian(double mean, double stddev) {
        return mean + gaussian_value * stddev;
    }
    double exponential(double) { return 0.0; }
};

TEST(Channel, ShadowingClampBoundsSampledRssi) {
    const Channel ch;
    const double clamp = ch.config().shadowing_clamp_sigmas;
    RiggedRng rng;
    rng.gaussian_value = 1e6;  // a "draw" far beyond any real deviate
    for (const double d : {5.0, 40.0, 100.0, 500.0, 2000.0}) {
        const double cap = ch.mean_rssi_dbm(d) + clamp * ch.shadowing_sigma_db(d);
        EXPECT_DOUBLE_EQ(ch.sample_rssi_dbm(d, rng), cap) << "d=" << d;
    }
    rng.gaussian_value = 2.0;  // an ordinary deviate passes through unclamped
    EXPECT_DOUBLE_EQ(ch.sample_rssi_dbm(40.0, rng),
                     ch.mean_rssi_dbm(40.0) + 2.0 * ch.shadowing_sigma_db(40.0));
}

TEST(Channel, MaxInfluenceRangeIsConservative) {
    const Channel ch;
    const double r = ch.max_influence_range_m();
    EXPECT_GT(r, ch.carrier_sense_range_m());
    // At the influence range the *best possible* draw just reaches the
    // carrier-sense threshold...
    const double sigma_max = std::max(ch.config().shadowing_sigma_near_db,
                                      ch.config().shadowing_sigma_far_db);
    EXPECT_NEAR(ch.mean_rssi_dbm(r) + ch.config().shadowing_clamp_sigmas * sigma_max,
                ch.config().carrier_sense_dbm, 1e-6);
    // ...and beyond it, even a maximal clamped draw stays below threshold, so
    // culled radios can never sense the frame.
    RiggedRng rng;
    rng.gaussian_value = 1e6;
    for (double d = r * 1.0001; d < r * 4.0; d *= 1.5) {
        EXPECT_LT(ch.sample_rssi_dbm(d, rng), ch.config().carrier_sense_dbm);
    }
}

TEST(Channel, InvalidClampThrows) {
    ChannelConfig cfg;
    cfg.shadowing_clamp_sigmas = 0.0;
    EXPECT_THROW(Channel{cfg}, std::invalid_argument);
}

/// Ranges past any fixed search bracket: a 100 dBm transmitter's influence
/// range lies beyond 2e7 m, and the range returned must still put the mean
/// at the threshold, not stop short where a clamped draw still reaches
/// carrier sense.
TEST(Channel, InfluenceRangeHoldsPastLargeDistances) {
    const Channel ch{ChannelConfig{.tx_power_dbm = 100.0}};
    const double threshold = ch.config().carrier_sense_dbm -
                             ch.config().shadowing_clamp_sigmas *
                                 ch.config().shadowing_sigma_far_db;
    const double r = ch.max_influence_range_m();
    EXPECT_GT(r, 2e7);
    EXPECT_NEAR(ch.mean_rssi_dbm(r), threshold, 1e-6);
    EXPECT_LE(ch.mean_rssi_dbm(r * (1.0 + 1e-9)), threshold);
}

/// A threshold no finite distance reaches is rejected by the field that set
/// it, instead of returning a range where the mean is far above it.
TEST(Channel, UnreachableRangeThrowsNamingTheField) {
    ChannelConfig cfg;
    cfg.shadowing_clamp_sigmas = 1e6;  // influence threshold -1.5e6 dBm
    try {
        const Channel ch{cfg};
        FAIL() << "accepted an influence range of " << ch.max_influence_range_m() << " m";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("shadowing_clamp_sigmas"), std::string::npos)
            << e.what();
    }
    cfg = ChannelConfig{};
    cfg.rx_sensitivity_dbm = -1e5;
    EXPECT_THROW(Channel{cfg}, std::invalid_argument);
}

/// The breakpoint mean is computed once in the constructor; every distance
/// past the breakpoint keeps the bits of the per-call expression.
TEST(Channel, HoistedBreakpointMeanKeepsEveryBit) {
    const ChannelConfig c;
    const Channel ch{c};
    sim::SplitMix64 rng(99);
    for (int i = 0; i < 100000; ++i) {
        const double d = c.breakpoint_m + rng.canonical() * 2000.0;
        const double at_ref = c.tx_power_dbm - c.ref_loss_db;
        const double at_break =
            at_ref - 10.0 * c.exponent_near * std::log10(c.breakpoint_m / c.ref_distance_m);
        const double expected =
            at_break - 10.0 * c.exponent_far * std::log10(d / c.breakpoint_m);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(ch.mean_rssi_dbm(d)),
                  std::bit_cast<std::uint64_t>(expected))
            << "d=" << d;
    }
}

TEST(Channel, SplitMixDrawsMatchStreamDistributions) {
    // SplitMix64 implements its own gaussian/exponential (bitwise equal to
    // libstdc++'s, see SplitMixDrawsAreBitwiseStdDistributions); check their
    // moments against the parameters, as the mt19937_64 streams' would be.
    sim::SplitMix64 rng(12345);
    double sum = 0.0, sum_sq = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const double x = rng.gaussian(5.0, 2.0);
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / kN;
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(std::sqrt(sum_sq / kN - mean * mean), 2.0, 0.1);
    double esum = 0.0;
    for (int i = 0; i < kN; ++i) esum += rng.exponential(7.0);
    EXPECT_NEAR(esum / kN, 7.0, 0.3);
}

#ifdef __GLIBCXX__
TEST(Channel, SplitMixDrawsAreBitwiseStdDistributions) {
    // SplitMix64 repeats libstdc++'s operation sequence for
    // std::normal_distribution (Marsaglia polar over generate_canonical) and
    // std::exponential_distribution. Driven by the same generator, both must
    // return the same bits and leave the generator at the same position.
    constexpr std::uint64_t kSeeds = 1'000'000;
    std::uint64_t mismatches = 0;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const std::uint64_t key = sim::splitmix64_mix(seed);
        sim::SplitMix64 ours(key);
        sim::SplitMix64 theirs(key);
        const double mean = static_cast<double>(seed % 7) - 3.0;
        const double stddev = 0.25 + static_cast<double>(seed % 13);
        const double fade = 0.5 + static_cast<double>(seed % 11);
        const double g = ours.gaussian(mean, stddev);
        const double g_std = std::normal_distribution<double>(mean, stddev)(theirs);
        const double e = ours.exponential(fade);
        const double e_std = std::exponential_distribution<double>(1.0 / fade)(theirs);
        if (std::bit_cast<std::uint64_t>(g) != std::bit_cast<std::uint64_t>(g_std) ||
            std::bit_cast<std::uint64_t>(e) != std::bit_cast<std::uint64_t>(e_std) ||
            ours() != theirs()) {
            if (++mismatches == 1) {
                ADD_FAILURE() << "seed " << seed << ": gaussian " << g << " vs " << g_std
                              << ", exponential " << e << " vs " << e_std;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}
#endif

TEST(Channel, QuietDrawIsExactAgainstTheFullDraw) {
    // sample_rssi_or_quiet against the reference sample_rssi_from over 10^7
    // (mean, sigma, fade, key) cases, half with fades. "Quiet" must never
    // appear where the reference draw senses the frame, nor for a mean at or
    // above carrier sense, and every non-quiet sample must equal the
    // reference bit for bit with the generator left in the same place. A
    // quarter of the means sit within 64 ulps at or below carrier sense and
    // an eighth within 64 ulps of the quiet margin, where rounding would
    // show first; one case in sixteen has sigma 0 (deterministic RSSI).
    const Channel ch;
    const double cs = ch.config().carrier_sense_dbm;
    const double margin_edge = cs - Channel::kQuietMarginDb;
    const auto ulps_from = [](double x, std::int64_t k) {
        return std::bit_cast<double>(
            static_cast<std::uint64_t>(std::bit_cast<std::int64_t>(x) + k));
    };
    sim::SplitMix64 cases(2024);
    constexpr std::uint64_t kCases = 10'000'000;
    std::uint64_t quiet = 0, below = 0, false_quiet = 0, quiet_above = 0, mismatches = 0;
    for (std::uint64_t n = 0; n < kCases; ++n) {
        const std::uint64_t pick = cases();
        double mean = 0.0;
        switch (pick & 7) {
            case 0:
            case 1:  // within 64 ulps at or below carrier sense (cs < 0: +k is lower)
                mean = ulps_from(cs, static_cast<std::int64_t>((pick >> 3) & 63));
                break;
            case 2:  // within 64 ulps of the quiet margin, either side
                mean = ulps_from(margin_edge, static_cast<std::int64_t>((pick >> 3) & 127) - 64);
                break;
            default:  // the fanout's regime: up to 8 sigma below, a little above
                mean = cs - 16.0 + 20.0 * cases.canonical();
                break;
        }
        const double sigma = (pick >> 10) % 16 == 0 ? 0.0 : 0.05 + 12.0 * cases.canonical();
        const double fade = (pick >> 14) & 1 ? 10.0 * cases.canonical() : 0.0;
        const std::uint64_t key = cases();

        sim::SplitMix64 rng(key);
        sim::SplitMix64 ref_rng(key);
        const std::optional<double> got = ch.sample_rssi_or_quiet(mean, sigma, fade, rng);
        const double ref = ch.sample_rssi_from(mean, sigma, fade, ref_rng);
        below += mean < cs;
        if (!got) {
            ++quiet;
            quiet_above += !(mean < cs);
            if (ch.sensed(ref) && ++false_quiet == 1) {
                ADD_FAILURE() << "quiet but sensed: mean " << mean << " sigma " << sigma
                              << " fade " << fade << " key " << key << " ref " << ref;
            }
        } else if (std::bit_cast<std::uint64_t>(*got) != std::bit_cast<std::uint64_t>(ref) ||
                   rng() != ref_rng()) {
            if (++mismatches == 1) {
                ADD_FAILURE() << "sample differs: mean " << mean << " sigma " << sigma
                              << " fade " << fade << " key " << key << ": " << *got
                              << " vs " << ref;
            }
        }
    }
    EXPECT_EQ(false_quiet, 0u);
    EXPECT_EQ(quiet_above, 0u);
    EXPECT_EQ(mismatches, 0u);
    // The early out does fire: at least half the below-threshold cases
    // (every y <= 0 pair alone) end quiet.
    EXPECT_GT(quiet, below / 2);
}

TEST(Channel, NegativeShadowingSigmaRejected) {
    ChannelConfig c;
    c.shadowing_sigma_far_db = -1.0;
    EXPECT_THROW(Channel{c}, std::invalid_argument);
    c = ChannelConfig{};
    c.shadowing_sigma_near_db = std::nan("");
    EXPECT_THROW(Channel{c}, std::invalid_argument);
}

TEST(LossSchedule, RejectsBurstsThatCouldAmplifyOrAreEmpty) {
    const auto burst = [](double p, double db, double start_s, double end_s) {
        return LossBurst{sim::TimePoint::from_seconds(start_s),
                         sim::TimePoint::from_seconds(end_s), p, db};
    };
    LossSchedule s;
    EXPECT_NO_THROW(s.add(burst(0.5, 3.0, 1.0, 2.0)));
    EXPECT_NO_THROW(s.add(burst(1.0, 0.0, 1.0, 2.0)));
    EXPECT_THROW(s.add(burst(-0.1, 0.0, 1.0, 2.0)), std::invalid_argument);
    EXPECT_THROW(s.add(burst(1.5, 0.0, 1.0, 2.0)), std::invalid_argument);
    EXPECT_THROW(s.add(burst(std::nan(""), 0.0, 1.0, 2.0)), std::invalid_argument);
    EXPECT_THROW(s.add(burst(0.5, -20.0, 1.0, 2.0)), std::invalid_argument);
    EXPECT_THROW(s.add(burst(0.5, std::nan(""), 1.0, 2.0)), std::invalid_argument);
    EXPECT_THROW(s.add(burst(0.5, INFINITY, 1.0, 2.0)), std::invalid_argument);
    EXPECT_THROW(s.add(burst(0.5, 3.0, 2.0, 2.0)), std::invalid_argument);
    EXPECT_THROW(s.add(burst(0.5, 3.0, 2.0, 1.0)), std::invalid_argument);
    EXPECT_EQ(s.bursts().size(), 2u);
}

}  // namespace
}  // namespace cocoa::phy
