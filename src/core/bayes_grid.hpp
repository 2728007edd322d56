#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/grid_kernels.hpp"
#include "core/kernel_cache.hpp"
#include "core/radial_kernel.hpp"
#include "geom/rect.hpp"
#include "geom/vec2.hpp"
#include "phy/pdf_table.hpp"

namespace cocoa::core {

/// Discretization of the deployment area for the Bayesian position estimate.
struct GridConfig {
    geom::Rect area = geom::Rect::square(200.0);
    double cell_m = 2.0;  ///< nominal cell side; actual cells evenly divide the area
    /// Constraint floor, as a fraction of the constraint's peak density: a
    /// cell never gets weight below floor_fraction * peak. Keeps the
    /// posterior proper under conflicting/bad beacons (Eq. 2 would otherwise
    /// annihilate it).
    double floor_fraction = 0.01;
    /// Where the grid gets its radial kernels. A scenario sets one cache on
    /// every robot's grid so each distinct kernel is built once; null gives
    /// the grid a private cache. Derived state: never checkpointed.
    std::shared_ptr<KernelCache> kernels;
};

/// The grid-based Bayesian position estimator of §2.2 (after Sichitiu &
/// Ramadurai): a discrete PDF over the deployment area
/// [(x_min, x_max) x (y_min, y_max)].
///
///  - reset_uniform()        : the constant initial estimate;
///  - apply_constraint()     : Eqs. (1) and (2) — multiply the prior by
///                             Constraint(x,y) = PDF_RSSI(d((x,y), beacon))
///                             and renormalize;
///  - mean()                 : Eq. (3) — the position estimate as the
///                             posterior mean.
///
/// apply_constraint runs on precomputed radial kernels (see RadialKernel)
/// through the blocked SIMD-dispatched kernels in core/grid_kernels: rows are
/// padded to a multiple of sim::isa::kBlock doubles (padding cells carry zero
/// mass forever), per-column/per-row operands live in separate SoA arrays,
/// and the constraint sweep and the fused normalize+moments pass both run
/// whole blocks at a time. Kernels come from the config's KernelCache, shared
/// by every grid of a scenario: the PDF table has a few dozen usable bins, so
/// each kernel is built once per scenario, not once per grid.
///
/// Posterior statistics (mean, spread) are recomputed eagerly inside every
/// mutating call, fused into the normalization pass; mean()/spread() are
/// plain reads. That makes concurrent const reads race-free — required once
/// grids are filled in by a worker pool and read from the sim thread.
class BayesGrid {
  public:
    explicit BayesGrid(const GridConfig& config);

    std::size_t nx() const { return nx_; }
    std::size_t ny() const { return ny_; }
    std::size_t cell_count() const { return nx_ * ny_; }
    const geom::Rect& area() const { return config_.area; }
    double cell_width() const { return cell_w_; }
    double cell_height() const { return cell_h_; }

    /// Centre of cell (ix, iy).
    geom::Vec2 cell_center(std::size_t ix, std::size_t iy) const;

    /// Posterior probability mass of cell (ix, iy).
    double mass_at(std::size_t ix, std::size_t iy) const {
        assert(ix < nx_ && iy < ny_);
        return cells_[iy * stride_ + ix];
    }

    /// Resets to the uniform prior (robot equally likely anywhere).
    void reset_uniform();

    /// Applies one beacon constraint (Eqs. 1-2): the distance PDF looked up
    /// for the beacon's RSSI, centred on the anchor position carried in the
    /// beacon. Renormalizes.
    void apply_constraint(const geom::Vec2& anchor_position, const phy::DistancePdf& pdf);

    /// The pre-kernel reference implementation of apply_constraint: exact
    /// sqrt+exp per cell. Kept as the equivalence oracle for tests and as
    /// the baseline the perf suite measures speedups against.
    void apply_constraint_exact(const geom::Vec2& anchor_position,
                                const phy::DistancePdf& pdf);

    /// Eq. (3): posterior mean position.
    geom::Vec2 mean() const { return stats_mean_; }

    /// Centre of the highest-mass cell (diagnostic / MAP estimate).
    geom::Vec2 map_estimate() const;

    /// RMS distance of the posterior from its mean — a confidence measure
    /// (large after bad beacons, small after three good ones). Computed in
    /// the same fused pass that normalizes each update.
    double spread() const { return stats_spread_; }

    /// Total probability mass (== 1 up to rounding; exposed for tests).
    double total_mass() const;

    /// The cached kernel for this PDF (building it on a miss). Exposed so
    /// tests can check the certified table directly.
    const RadialKernel& kernel_for(const phy::DistancePdf& pdf) const;

    /// Number of kernels in this grid's cache — shared with every grid on
    /// the same KernelCache, so it counts their kernels too.
    std::size_t kernel_cache_size() const { return config_.kernels->size(); }

  private:
    /// The blocked (SIMD-dispatched) sweep + fused normalize/moments.
    void apply_blocked(const geom::Vec2& anchor_position, const RadialKernel& kernel);
    /// Turns raw centred moments into stats_mean_ / stats_spread_.
    void finish_stats(const gridk::Moments& moments);
    /// Normalizes by 1/total via the fused pass and refreshes the stats.
    void scale_and_refresh_stats(double total);

    GridConfig config_;
    std::size_t nx_ = 0;
    std::size_t ny_ = 0;
    std::size_t stride_ = 0;  ///< row stride: nx_ padded to sim::isa::kBlock
    double cell_w_ = 0.0;
    double cell_h_ = 0.0;
    std::vector<double> cells_;  ///< row-major [iy * stride + ix]; padding == 0

    // Static SoA operands of the fused normalize+moments pass: centred
    // cell-centre x and x² per column (padding zero), y and y² per row.
    std::vector<double> colx_;
    std::vector<double> colx2_;
    std::vector<double> row_y_;
    std::vector<double> row_y2_;
    // Per-apply scratch for the constraint sweep: squared x-offset per
    // column (padding +inf so padded lanes stay at the kernel floor), its
    // min/max per block, and the squared y-offset per row.
    std::vector<double> colq_;
    std::vector<double> blk_qmin_;
    std::vector<double> blk_qmax_;
    std::vector<double> row_qy_;

    // Posterior statistics, refreshed eagerly by every mutating call (no
    // lazy mutable cache: const reads must stay race-free).
    geom::Vec2 stats_mean_;
    double stats_spread_ = 0.0;
    // The uniform prior's statistics, computed once at construction so
    // reset_uniform() is a fill plus a restore.
    geom::Vec2 uniform_mean_;
    double uniform_spread_ = 0.0;
};

}  // namespace cocoa::core
