#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/bayes_grid.hpp"
#include "core/grid_kernels.hpp"
#include "core/kernel_cache.hpp"
#include "sim/random.hpp"

namespace cocoa::core {
namespace {

using cocoa::geom::Rect;
using cocoa::geom::Vec2;

GridConfig paper_grid() {
    GridConfig g;
    g.area = Rect::square(200.0);
    g.cell_m = 2.0;
    return g;
}

phy::DistancePdf make_pdf(double mean, double sigma) {
    phy::DistancePdf pdf;
    pdf.mean_m = mean;
    pdf.sigma_m = sigma;
    pdf.gaussian_fit_ok = true;
    pdf.sample_count = 1000;
    return pdf;
}

TEST(BayesGrid, DimensionsFromCellSize) {
    const BayesGrid g(paper_grid());
    EXPECT_EQ(g.nx(), 100u);
    EXPECT_EQ(g.ny(), 100u);
    EXPECT_EQ(g.cell_count(), 10000u);
    EXPECT_DOUBLE_EQ(g.cell_width(), 2.0);
}

TEST(BayesGrid, NonSquareArea) {
    GridConfig cfg;
    cfg.area = Rect::from_bounds(0.0, 0.0, 100.0, 50.0);
    cfg.cell_m = 5.0;
    const BayesGrid g(cfg);
    EXPECT_EQ(g.nx(), 20u);
    EXPECT_EQ(g.ny(), 10u);
}

TEST(BayesGrid, InvalidConfigThrows) {
    GridConfig cfg = paper_grid();
    cfg.cell_m = 0.0;
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
    cfg = paper_grid();
    cfg.floor_fraction = 1.0;
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
    cfg = paper_grid();
    cfg.floor_fraction = -0.1;
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
}

/// NaN slips past every ordered comparison. Unchecked, a NaN cell size
/// would reach an undefined float->size_t cast and a NaN floor would turn
/// every posterior into NaN.
TEST(BayesGrid, NaNCellSizeOrFloorThrows) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    GridConfig cfg = paper_grid();
    cfg.cell_m = nan;
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
    cfg = paper_grid();
    cfg.floor_fraction = nan;
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
}

/// A tiny positive cell size asks for more cells than any vector can hold
/// (2e302 per side here); the grid must say so before converting the count
/// to an integer, not run on a wrapped-around size.
TEST(BayesGrid, UnallocatableCellCountThrows) {
    GridConfig cfg = paper_grid();
    cfg.cell_m = 1e-300;
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
    cfg.cell_m = 1e-8;  // 2e10 x 2e10 cells: still past max_size()
    EXPECT_THROW(BayesGrid{cfg}, std::invalid_argument);
}

TEST(BayesGrid, UniformPriorProperties) {
    const BayesGrid g(paper_grid());
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
    // Eq. (3) over the uniform prior gives the area centre.
    const Vec2 mean = g.mean();
    EXPECT_NEAR(mean.x, 100.0, 1e-9);
    EXPECT_NEAR(mean.y, 100.0, 1e-9);
    // Every cell has identical mass.
    EXPECT_NEAR(g.mass_at(0, 0), 1.0 / 10000.0, 1e-15);
    EXPECT_NEAR(g.mass_at(99, 99), 1.0 / 10000.0, 1e-15);
}

TEST(BayesGrid, CellCentersCoverArea) {
    const BayesGrid g(paper_grid());
    EXPECT_EQ(g.cell_center(0, 0), Vec2(1.0, 1.0));
    EXPECT_EQ(g.cell_center(99, 99), Vec2(199.0, 199.0));
    EXPECT_EQ(g.cell_center(49, 0), Vec2(99.0, 1.0));
}

TEST(BayesGrid, ConstraintNormalizes) {
    BayesGrid g(paper_grid());
    g.apply_constraint({100.0, 100.0}, make_pdf(20.0, 3.0));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
}

TEST(BayesGrid, ConstraintConcentratesOnRing) {
    BayesGrid g(paper_grid());
    const Vec2 anchor{100.0, 100.0};
    g.apply_constraint(anchor, make_pdf(20.0, 3.0));
    // A cell on the ring (distance 20 from the anchor) must beat one far off.
    const double on_ring = g.mass_at(60, 50);   // center (121, 101): d ~ 21
    const double off_ring = g.mass_at(80, 50);  // center (161, 101): d ~ 61
    EXPECT_GT(on_ring, 10.0 * off_ring);
}

TEST(BayesGrid, RingConstraintKeepsMeanNearAnchor) {
    // A single ring constraint is rotationally symmetric: the posterior mean
    // falls near the anchor itself (the ring's centroid).
    BayesGrid g(paper_grid());
    const Vec2 anchor{100.0, 100.0};
    g.apply_constraint(anchor, make_pdf(25.0, 3.0));
    EXPECT_NEAR(g.mean().x, anchor.x, 1.0);
    EXPECT_NEAR(g.mean().y, anchor.y, 1.0);
    // But the spread is large: a ring is not a point estimate.
    EXPECT_GT(g.spread(), 15.0);
}

TEST(BayesGrid, ThreeAnchorsTriangulate) {
    // Eqs. (1)-(3): three ring constraints from well-placed anchors intersect
    // at the true position.
    BayesGrid g(paper_grid());
    const Vec2 truth{80.0, 120.0};
    const Vec2 anchors[] = {{60.0, 100.0}, {110.0, 130.0}, {85.0, 90.0}};
    for (const Vec2& a : anchors) {
        g.apply_constraint(a, make_pdf(geom::distance(a, truth), 2.0));
    }
    EXPECT_NEAR(g.mean().x, truth.x, 2.5);
    EXPECT_NEAR(g.mean().y, truth.y, 2.5);
    // The constraint floor leaves a little mass everywhere, so the spread
    // cannot collapse to the ring-intersection width alone.
    EXPECT_LT(g.spread(), 15.0);
    // MAP agrees with the mean here.
    EXPECT_NEAR(g.map_estimate().x, truth.x, 4.0);
    EXPECT_NEAR(g.map_estimate().y, truth.y, 4.0);
}

TEST(BayesGrid, MoreBeaconsTightenPosterior) {
    const Vec2 truth{80.0, 120.0};
    const Vec2 anchors[] = {{60.0, 100.0}, {110.0, 130.0}, {85.0, 90.0},
                            {50.0, 140.0}, {120.0, 100.0}};
    BayesGrid g3(paper_grid());
    BayesGrid g5(paper_grid());
    int i = 0;
    for (const Vec2& a : anchors) {
        const auto pdf = make_pdf(geom::distance(a, truth), 3.0);
        if (i < 3) g3.apply_constraint(a, pdf);
        g5.apply_constraint(a, pdf);
        ++i;
    }
    EXPECT_LT(g5.spread(), g3.spread());
}

TEST(BayesGrid, SequentialUpdatesCommute) {
    // Bayes: the posterior is order-independent.
    const Vec2 a1{60.0, 100.0};
    const Vec2 a2{110.0, 130.0};
    BayesGrid fwd(paper_grid());
    fwd.apply_constraint(a1, make_pdf(30.0, 4.0));
    fwd.apply_constraint(a2, make_pdf(40.0, 4.0));
    BayesGrid rev(paper_grid());
    rev.apply_constraint(a2, make_pdf(40.0, 4.0));
    rev.apply_constraint(a1, make_pdf(30.0, 4.0));
    EXPECT_NEAR(fwd.mean().x, rev.mean().x, 1e-9);
    EXPECT_NEAR(fwd.mean().y, rev.mean().y, 1e-9);
}

TEST(BayesGrid, ResetRestoresUniform) {
    BayesGrid g(paper_grid());
    g.apply_constraint({100.0, 100.0}, make_pdf(20.0, 3.0));
    g.reset_uniform();
    EXPECT_NEAR(g.mass_at(0, 0), 1.0 / 10000.0, 1e-15);
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
}

TEST(BayesGrid, ConflictingConstraintsStayProper) {
    // Two rings that cannot both hold (anchors 100 m apart, both claiming
    // distance 5 m): the floor keeps the posterior proper.
    BayesGrid g(paper_grid());
    g.apply_constraint({50.0, 100.0}, make_pdf(5.0, 1.0));
    g.apply_constraint({150.0, 100.0}, make_pdf(5.0, 1.0));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
    const Vec2 mean = g.mean();
    EXPECT_TRUE(paper_grid().area.contains(mean));
}

TEST(BayesGrid, ZeroSigmaConstraintThrows) {
    BayesGrid g(paper_grid());
    EXPECT_THROW(g.apply_constraint({0.0, 0.0}, make_pdf(10.0, 0.0)),
                 std::invalid_argument);
}

TEST(BayesGrid, AnchorOutsideAreaStillWorks) {
    // Beacons can come from robots slightly outside the blind robot's grid
    // model (Eq. 1 only constrains (x, y) inside the deployment area).
    BayesGrid g(paper_grid());
    g.apply_constraint({-20.0, 100.0}, make_pdf(30.0, 3.0));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
    // Mass concentrates near the area edge closest to the ring.
    EXPECT_LT(g.mean().x, 60.0);
}

TEST(BayesGrid, MeanAlwaysInsideArea) {
    BayesGrid g(paper_grid());
    for (int i = 0; i < 5; ++i) {
        g.apply_constraint({200.0 * (i % 2 ? 1.0 : 0.0), 40.0 * i},
                           make_pdf(10.0 + 20.0 * i, 2.0 + i));
        EXPECT_TRUE(paper_grid().area.contains(g.mean()));
    }
}

// Property sweep (Eq. 2 invariants): for a range of anchor geometries and PDF
// widths, the posterior stays normalized, its mean stays in the area, and a
// correct constraint never pushes the estimate further from the truth than
// the prior's worst case.
class GridPropertySweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GridPropertySweep, PosteriorInvariants) {
    const auto [anchor_x, sigma] = GetParam();
    const Vec2 truth{120.0, 80.0};
    const Vec2 anchor{anchor_x, 60.0};
    BayesGrid g(paper_grid());
    g.apply_constraint(anchor, make_pdf(geom::distance(anchor, truth), sigma));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-9);
    EXPECT_TRUE(paper_grid().area.contains(g.mean()));
    EXPECT_GT(g.spread(), 0.0);
    EXPECT_LE(g.spread(), 120.0);
    // The ring passes through the truth: density near the truth must exceed
    // the uniform level.
    const auto ix = static_cast<std::size_t>(truth.x / 2.0);
    const auto iy = static_cast<std::size_t>(truth.y / 2.0);
    EXPECT_GT(g.mass_at(ix, iy), 0.5 / 10000.0);
}

INSTANTIATE_TEST_SUITE_P(
    AnchorsAndWidths, GridPropertySweep,
    ::testing::Combine(::testing::Values(20.0, 60.0, 100.0, 140.0, 180.0),
                       ::testing::Values(1.0, 3.0, 8.0, 20.0)));

// --- radial-kernel fast path ------------------------------------------------

// The kernel fast path must be indistinguishable from the exact sqrt+exp
// reference across random multi-anchor constraint sequences: mean and spread
// within 1e-9 relative (of the area scale), MAP in the same cell.
TEST(BayesGridKernel, LutMatchesExactAcrossRandomConstraints) {
    sim::RandomStream rng(99);
    const double scale = paper_grid().area.diagonal();
    for (int rep = 0; rep < 20; ++rep) {
        BayesGrid fast(paper_grid());
        BayesGrid exact(paper_grid());
        const int constraints = 1 + static_cast<int>(rng.uniform_int(0, 4));
        for (int c = 0; c < constraints; ++c) {
            const Vec2 anchor{rng.uniform(-20.0, 220.0), rng.uniform(-20.0, 220.0)};
            const phy::DistancePdf pdf =
                make_pdf(rng.uniform(2.0, 150.0), rng.uniform(0.5, 25.0));
            fast.apply_constraint(anchor, pdf);
            exact.apply_constraint_exact(anchor, pdf);
        }
        EXPECT_NEAR(fast.mean().x, exact.mean().x, 1e-9 * scale);
        EXPECT_NEAR(fast.mean().y, exact.mean().y, 1e-9 * scale);
        EXPECT_NEAR(fast.spread(), exact.spread(),
                    1e-9 * std::max(scale, exact.spread()));
        // MAP must land in the same cell — cell centres compare exactly.
        EXPECT_EQ(fast.map_estimate().x, exact.map_estimate().x);
        EXPECT_EQ(fast.map_estimate().y, exact.map_estimate().y);
    }
}

// Every kernel self-certifies at build time: interpolated evaluations agree
// with the exact Gaussian-plus-floor to ~1e-10 relative everywhere.
TEST(BayesGridKernel, KernelEvalCertified) {
    BayesGrid g(paper_grid());
    sim::RandomStream rng(7);
    for (const auto& [mean, sigma] :
         {std::pair{40.0, 3.0}, {3.0, 4.0}, {120.0, 15.0}, {1.0, 0.7}}) {
        const RadialKernel& k = g.kernel_for(make_pdf(mean, sigma));
        for (int i = 0; i < 20000; ++i) {
            const double q = rng.uniform(0.0, k.q_hi() * 1.1);
            const double got = k.eval_q(q);
            const double want = k.eval_exact_d(std::sqrt(q));
            EXPECT_NEAR(got, want, 1e-9 * want)
                << "mean=" << mean << " sigma=" << sigma << " q=" << q;
        }
    }
}

// Near-anchor constraints exercise the certified exact-evaluation region
// around the √q singularity; the cells next to the anchor must still match
// the reference to full tolerance.
TEST(BayesGridKernel, NearAnchorCellsExact) {
    BayesGrid fast(paper_grid());
    BayesGrid exact(paper_grid());
    const Vec2 anchor{101.0, 99.0};  // inside a cell, near its corner
    const phy::DistancePdf pdf = make_pdf(1.5, 2.0);
    fast.apply_constraint(anchor, pdf);
    exact.apply_constraint_exact(anchor, pdf);
    for (std::size_t iy = 45; iy < 55; ++iy) {
        for (std::size_t ix = 45; ix < 55; ++ix) {
            EXPECT_NEAR(fast.mass_at(ix, iy), exact.mass_at(ix, iy),
                        1e-9 * exact.mass_at(ix, iy));
        }
    }
}

// Grids on one KernelCache share kernels: the second grid gets the very
// object the first one built, and the cache holds one entry per PDF.
TEST(BayesGridKernel, SharedCacheReturnsSameKernel) {
    GridConfig cfg = paper_grid();
    cfg.kernels = std::make_shared<KernelCache>();
    const BayesGrid a(cfg);
    const BayesGrid b(cfg);
    const phy::DistancePdf pdf = make_pdf(40.0, 3.0);
    const RadialKernel* first = &a.kernel_for(pdf);
    EXPECT_EQ(&b.kernel_for(pdf), first);
    EXPECT_EQ(&a.kernel_for(pdf), first);
    EXPECT_EQ(cfg.kernels->size(), 1u);
    EXPECT_EQ(b.kernel_cache_size(), 1u);
    // A grid without a cache in its config gets a private one.
    const BayesGrid private_grid(paper_grid());
    EXPECT_NE(&private_grid.kernel_for(pdf), first);
    EXPECT_EQ(cfg.kernels->size(), 1u);
}

// floor_fraction is part of the kernel (it sets the baked-in floor), so
// grids that differ only in it must not share a kernel.
TEST(BayesGridKernel, FloorFractionSelectsItsOwnKernel) {
    GridConfig cfg = paper_grid();
    cfg.kernels = std::make_shared<KernelCache>();
    const BayesGrid low(cfg);
    cfg.floor_fraction = 0.05;
    const BayesGrid high(cfg);
    const phy::DistancePdf pdf = make_pdf(40.0, 3.0);
    const RadialKernel& k_low = low.kernel_for(pdf);
    const RadialKernel& k_high = high.kernel_for(pdf);
    EXPECT_NE(&k_low, &k_high);
    EXPECT_DOUBLE_EQ(k_high.floor(), 5.0 * k_low.floor());
    EXPECT_EQ(cfg.kernels->size(), 2u);
}

void expect_bitwise_equal(const BayesGrid& got, const BayesGrid& want) {
    for (std::size_t iy = 0; iy < want.ny(); ++iy) {
        for (std::size_t ix = 0; ix < want.nx(); ++ix) {
            ASSERT_EQ(got.mass_at(ix, iy), want.mass_at(ix, iy))
                << "cell (" << ix << ", " << iy << ")";
        }
    }
    EXPECT_EQ(got.mean().x, want.mean().x);
    EXPECT_EQ(got.mean().y, want.mean().y);
    EXPECT_EQ(got.spread(), want.spread());
}

// Sharing changes who builds a kernel, never what it holds: grids on one
// shared cache and grids on private caches end bitwise-equal.
TEST(BayesGridKernel, SharedAndPrivateCachesAgreeBitwise) {
    GridConfig shared_cfg = paper_grid();
    shared_cfg.kernels = std::make_shared<KernelCache>();
    BayesGrid shared_a(shared_cfg);
    BayesGrid shared_b(shared_cfg);
    BayesGrid private_a(paper_grid());
    BayesGrid private_b(paper_grid());
    sim::RandomStream rng(31);
    for (int c = 0; c < 12; ++c) {
        // Each PDF goes to grid a first and to grid b next, so shared_b
        // only ever applies kernels that shared_a built.
        const int k = (c / 2) % 3;
        const phy::DistancePdf pdf = make_pdf(10.0 + 15.0 * k, 2.0 + k);
        const Vec2 anchor{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
        BayesGrid& shared = c % 2 == 0 ? shared_a : shared_b;
        BayesGrid& priv = c % 2 == 0 ? private_a : private_b;
        shared.apply_constraint(anchor, pdf);
        priv.apply_constraint(anchor, pdf);
    }
    EXPECT_EQ(shared_cfg.kernels->size(), 3u);
    expect_bitwise_equal(shared_a, private_a);
    expect_bitwise_equal(shared_b, private_b);
}

/// Fix-pool workers build and read kernels concurrently: four threads, each
/// with its own grid on one shared cache, cycle through a table's worth of
/// bins from different starting points (so they race to build the same
/// kernels) and must end bitwise-equal to the same sequences run serially.
TEST(BayesGridKernel, SharedCacheConcurrentAppliesMatchSerial) {
    constexpr int kThreads = 4;
    constexpr int kBins = 24;
    constexpr int kSteps = 2 * kBins;
    GridConfig cfg;
    cfg.area = Rect::square(200.0);
    cfg.cell_m = 5.0;
    std::vector<phy::DistancePdf> bins;
    for (int i = 0; i < kBins; ++i) bins.push_back(make_pdf(2.0 + 3.0 * i, 1.0 + 0.4 * i));
    const auto run = [&](BayesGrid& grid, int t) {
        for (int s = 0; s < kSteps; ++s) {
            const Vec2 anchor{7.0 * s + 13.0 * t, 200.0 - 5.0 * s};
            grid.apply_constraint(anchor, bins[static_cast<std::size_t>((s + 5 * t) % kBins)]);
            if (s % 4 == 3) grid.reset_uniform();
        }
    };

    std::vector<BayesGrid> serial;
    for (int t = 0; t < kThreads; ++t) {
        serial.emplace_back(cfg);
        run(serial.back(), t);
    }

    GridConfig shared_cfg = cfg;
    shared_cfg.kernels = std::make_shared<KernelCache>();
    std::vector<BayesGrid> concurrent(kThreads, BayesGrid(shared_cfg));
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] { run(concurrent[static_cast<std::size_t>(t)], t); });
    }
    for (std::thread& w : workers) w.join();

    EXPECT_EQ(shared_cfg.kernels->size(), static_cast<std::size_t>(kBins));
    for (int t = 0; t < kThreads; ++t) {
        SCOPED_TRACE(t);
        expect_bitwise_equal(concurrent[static_cast<std::size_t>(t)],
                             serial[static_cast<std::size_t>(t)]);
    }
}

// The compensated/pairwise summations keep the mass budget honest on a
// million-cell grid: drift stays at the 1e-12 level, not n·eps.
TEST(BayesGridKernel, MillionCellMassDrift) {
    GridConfig cfg;
    cfg.area = Rect::square(200.0);
    cfg.cell_m = 0.2;  // 1000 x 1000 cells
    BayesGrid g(cfg);
    ASSERT_EQ(g.cell_count(), 1'000'000u);
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-12);
    g.apply_constraint({60.0, 140.0}, make_pdf(50.0, 4.0));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-12);
    g.apply_constraint({150.0, 40.0}, make_pdf(80.0, 10.0));
    EXPECT_NEAR(g.total_mass(), 1.0, 1e-12);
    EXPECT_TRUE(cfg.area.contains(g.mean()));
}

/// Forces one grid instantiation until scope exit, so a failing assertion
/// can't leak the override into later tests (the dispatcher is global).
struct ForceIsaGuard {
    explicit ForceIsaGuard(const char* isa) { gridk::force_isa(isa); }
    ~ForceIsaGuard() { gridk::force_isa(nullptr); }
};

TEST(BayesGridKernel, RunnableIsasStartWithGenericAndIncludeTheDispatched) {
    const std::vector<const char*> isas = gridk::runnable_isas();
    ASSERT_FALSE(isas.empty());
    EXPECT_STREQ(isas.front(), "generic");
    EXPECT_STREQ(isas.back(), gridk::active_isa());
    EXPECT_THROW(gridk::force_isa("sse9"), std::invalid_argument);
}

/// Randomized oracle equivalence of the blocked/SIMD apply path against
/// apply_constraint_exact, across the layouts that stress its edge handling:
/// widths that are not a multiple of the 8-lane block (tail blocks padded
/// with +inf colq), non-square grids, floor_fraction = 0 (no in-band floor
/// blending at the band edge) and near-degenerate sigmas that lean on the
/// kernel's sigma floor and certified-exact region. Runs on every runnable
/// instantiation.
TEST(BayesGridKernel, SimdMatchesExactOracleOnEdgeLayouts) {
    struct Layout {
        double w, h, cell, floor_frac;
    };
    const std::vector<Layout> layouts = {
        {200.0, 200.0, 1.7, 0.01},   // nx = 118: 14 full blocks + 6-lane tail
        {200.0, 120.0, 2.3, 0.0},    // 87 x 53, zero floor
        {61.0, 200.0, 3.1, 0.05},    // 20 x 65: narrow, block-and-a-half rows
        {200.0, 200.0, 25.0, 0.01},  // 8 x 8: single block per row
    };
    for (const char* isa : gridk::runnable_isas()) {
        SCOPED_TRACE(isa);
        const ForceIsaGuard guard(isa);
        sim::RandomStream rng(4242);
        for (const Layout& l : layouts) {
            GridConfig cfg;
            cfg.area = Rect{{0.0, 0.0}, {l.w, l.h}};
            cfg.cell_m = l.cell;
            cfg.floor_fraction = l.floor_frac;
            for (int rep = 0; rep < 6; ++rep) {
                BayesGrid fast(cfg);
                BayesGrid exact(cfg);
                // Mutually consistent constraints (rings through one truth
                // point): the posterior keeps real mass, so normalization can't
                // amplify the kernel's designed 8.5-sigma band truncation into
                // a visible disagreement with the untruncated oracle.
                const Vec2 truth{rng.uniform(0.1 * l.w, 0.9 * l.w),
                                 rng.uniform(0.1 * l.h, 0.9 * l.h)};
                const int constraints = 1 + static_cast<int>(rng.uniform_int(0, 2));
                for (int c = 0; c < constraints; ++c) {
                    const Vec2 anchor{rng.uniform(-0.2 * l.w, 1.2 * l.w),
                                      rng.uniform(-0.2 * l.h, 1.2 * l.h)};
                    // Sigmas down to 0.05 m: far below cell size, deep into the
                    // kernel's sigma-floor/exact-evaluation regime.
                    const double d = geom::distance(anchor, truth);
                    const phy::DistancePdf pdf =
                        make_pdf(std::max(0.5, d * rng.uniform(0.95, 1.05)),
                                 rng.uniform(0.05, 20.0));
                    fast.apply_constraint(anchor, pdf);
                    exact.apply_constraint_exact(anchor, pdf);
                }
                EXPECT_NEAR(fast.total_mass(), 1.0, 1e-10);
                // Absolute slack 1e-12: beyond the band edge the kernel returns
                // the floor while the oracle keeps an exp tail ~2e-16 of the
                // ring peak — by design, not an equivalence failure.
                for (std::size_t iy = 0; iy < fast.ny(); ++iy) {
                    for (std::size_t ix = 0; ix < fast.nx(); ++ix) {
                        const double want = exact.mass_at(ix, iy);
                        ASSERT_NEAR(fast.mass_at(ix, iy), want, 1e-9 * want + 1e-12)
                            << "cell (" << ix << ", " << iy << ") cell_m=" << l.cell
                            << " floor=" << l.floor_frac;
                    }
                }
                const double scale = cfg.area.diagonal();
                EXPECT_NEAR(fast.mean().x, exact.mean().x, 1e-9 * scale);
                EXPECT_NEAR(fast.mean().y, exact.mean().y, 1e-9 * scale);
                EXPECT_NEAR(fast.spread(), exact.spread(),
                            1e-9 * std::max(scale, exact.spread()));
            }
        }
    }
}

/// The determinism half of the SIMD contract: every runnable ISA
/// instantiation (the dispatched one among them) and the portable generic
/// instantiation produce bitwise identical grids and statistics — this is
/// what lets CI diff fig7 output between -DCOCOA_SIMD=ON and OFF builds
/// byte-for-byte. (On hardware that runs only the baseline, it degenerates
/// to self-vs-self and stays green.)
TEST(BayesGridKernel, DispatchedAndGenericPathsAreBitwiseIdentical) {
    GridConfig cfg;
    cfg.area = Rect::square(200.0);
    cfg.cell_m = 1.7;  // odd width: exercises the padded tail block
    const Vec2 anchor{37.0, 141.0};
    const std::vector<phy::DistancePdf> pdfs = {
        make_pdf(40.0, 3.0), make_pdf(3.0, 4.0), make_pdf(120.0, 15.0),
        make_pdf(1.0, 0.7)};
    BayesGrid generic(cfg);
    {
        const ForceIsaGuard guard("generic");
        for (const auto& pdf : pdfs) generic.apply_constraint(anchor, pdf);
    }

    for (const char* isa : gridk::runnable_isas()) {
        SCOPED_TRACE(isa);
        BayesGrid other(cfg);
        {
            const ForceIsaGuard guard(isa);
            for (const auto& pdf : pdfs) other.apply_constraint(anchor, pdf);
        }
        for (std::size_t iy = 0; iy < other.ny(); ++iy) {
            for (std::size_t ix = 0; ix < other.nx(); ++ix) {
                ASSERT_EQ(other.mass_at(ix, iy), generic.mass_at(ix, iy))
                    << "cell (" << ix << ", " << iy << ") differs bitwise under " << isa;
            }
        }
        EXPECT_EQ(other.mean().x, generic.mean().x);
        EXPECT_EQ(other.mean().y, generic.mean().y);
        EXPECT_EQ(other.spread(), generic.spread());
    }
}

// mean()/spread() are one fused cached pass; mutation invalidates the cache.
TEST(BayesGridKernel, FusedStatsCacheInvalidates) {
    BayesGrid g(paper_grid());
    const Vec2 before = g.mean();
    EXPECT_NEAR(before.x, 100.0, 1e-9);
    g.apply_constraint({40.0, 40.0}, make_pdf(10.0, 3.0));
    const Vec2 after = g.mean();
    EXPECT_GT(geom::distance(before, after), 1.0);
    const double s1 = g.spread();
    g.reset_uniform();
    EXPECT_NE(g.spread(), s1);
    EXPECT_NEAR(g.mean().x, 100.0, 1e-9);
}

}  // namespace
}  // namespace cocoa::core
