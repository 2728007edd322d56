#include "core/bayes_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "metrics/sum.hpp"
#include "obs/profile.hpp"

namespace cocoa::core {

BayesGrid::BayesGrid(const GridConfig& config) : config_(config) {
    if (config_.cell_m <= 0.0) {
        throw std::invalid_argument("BayesGrid: cell size must be positive");
    }
    if (config_.area.width() <= 0.0 || config_.area.height() <= 0.0) {
        throw std::invalid_argument("BayesGrid: area must have positive extent");
    }
    if (config_.floor_fraction < 0.0 || config_.floor_fraction >= 1.0) {
        throw std::invalid_argument("BayesGrid: floor_fraction must be in [0, 1)");
    }
    if (config_.kernels == nullptr) config_.kernels = std::make_shared<KernelCache>();
    nx_ = static_cast<std::size_t>(std::ceil(config_.area.width() / config_.cell_m));
    ny_ = static_cast<std::size_t>(std::ceil(config_.area.height() / config_.cell_m));
    nx_ = std::max<std::size_t>(nx_, 1);
    ny_ = std::max<std::size_t>(ny_, 1);
    stride_ = gridk::padded(nx_);
    cell_w_ = config_.area.width() / static_cast<double>(nx_);
    cell_h_ = config_.area.height() / static_cast<double>(ny_);
    cells_.assign(stride_ * ny_, 0.0);

    // Static SoA operands: centred cell-centre coordinates. Padding columns
    // keep zeros — they multiply zero mass, so their value never matters.
    const geom::Vec2 c0 = config_.area.center();
    colx_.assign(stride_, 0.0);
    colx2_.assign(stride_, 0.0);
    for (std::size_t ix = 0; ix < nx_; ++ix) {
        const double x =
            config_.area.min.x + (static_cast<double>(ix) + 0.5) * cell_w_ - c0.x;
        colx_[ix] = x;
        colx2_[ix] = x * x;
    }
    row_y_.resize(ny_);
    row_y2_.resize(ny_);
    for (std::size_t iy = 0; iy < ny_; ++iy) {
        const double y =
            config_.area.min.y + (static_cast<double>(iy) + 0.5) * cell_h_ - c0.y;
        row_y_[iy] = y;
        row_y2_[iy] = y * y;
    }
    colq_.resize(stride_);
    blk_qmin_.resize(stride_ / gridk::kBlock);
    blk_qmax_.resize(stride_ / gridk::kBlock);
    row_qy_.resize(ny_);

    // Seed the uniform prior and compute its statistics once through the
    // fused pass; reset_uniform() restores the cached values thereafter.
    const double uniform = 1.0 / static_cast<double>(cell_count());
    for (std::size_t iy = 0; iy < ny_; ++iy) {
        std::fill_n(cells_.data() + iy * stride_, nx_, uniform);
    }
    gridk::ScalePlan plan{cells_.data(), stride_,      ny_,
                          colx_.data(),  colx2_.data(), row_y_.data(),
                          row_y2_.data(), 1.0};
    finish_stats(gridk::scale_and_moments(plan));
    uniform_mean_ = stats_mean_;
    uniform_spread_ = stats_spread_;
}

geom::Vec2 BayesGrid::cell_center(std::size_t ix, std::size_t iy) const {
    return {config_.area.min.x + (static_cast<double>(ix) + 0.5) * cell_w_,
            config_.area.min.y + (static_cast<double>(iy) + 0.5) * cell_h_};
}

void BayesGrid::reset_uniform() {
    const double uniform = 1.0 / static_cast<double>(cell_count());
    for (std::size_t iy = 0; iy < ny_; ++iy) {
        std::fill_n(cells_.data() + iy * stride_, nx_, uniform);
    }
    stats_mean_ = uniform_mean_;
    stats_spread_ = uniform_spread_;
}

const RadialKernel& BayesGrid::kernel_for(const phy::DistancePdf& pdf) const {
    return config_.kernels->get(pdf, config_.floor_fraction);
}

void BayesGrid::finish_stats(const gridk::Moments& m) {
    // Moments arrive centred on the area centre — coordinates bounded by the
    // half-extent — which keeps the E[x²] - E[x]² cancellation benign.
    const geom::Vec2 c0 = config_.area.center();
    if (m.mass <= 0.0) {
        stats_mean_ = c0;
        stats_spread_ = 0.0;
        return;
    }
    const double inv = 1.0 / m.mass;
    const double mx = m.sx * inv;
    const double my = m.sy * inv;
    stats_mean_ = {c0.x + mx, c0.y + my};
    const double var = (m.sxx * inv - mx * mx) + (m.syy * inv - my * my);
    stats_spread_ = std::sqrt(std::max(var, 0.0));
}

void BayesGrid::scale_and_refresh_stats(double total) {
    gridk::ScalePlan plan{cells_.data(), stride_,      ny_,
                          colx_.data(),  colx2_.data(), row_y_.data(),
                          row_y2_.data(), 1.0 / total};
    finish_stats(gridk::scale_and_moments(plan));
}

void BayesGrid::apply_blocked(const geom::Vec2& anchor_position,
                              const RadialKernel& kernel) {
    // Build the per-apply SoA operands: squared coordinate offsets from the
    // anchor, per column and per row, plus the per-block colq range the
    // kernel uses to classify whole blocks as floor / table / exact.
    const double x0 = config_.area.min.x + 0.5 * cell_w_ - anchor_position.x;
    const double y0 = config_.area.min.y + 0.5 * cell_h_ - anchor_position.y;
    for (std::size_t ix = 0; ix < nx_; ++ix) {
        const double dx = x0 + static_cast<double>(ix) * cell_w_;
        colq_[ix] = dx * dx;
    }
    // Padding lanes sit at +inf: always past the band, always the floor
    // branch, and their zero mass stays zero. The +inf block max also keeps
    // tail blocks off the pure-floor fast path unless the real lanes earn it.
    std::fill(colq_.begin() + static_cast<std::ptrdiff_t>(nx_), colq_.end(),
              std::numeric_limits<double>::infinity());
    for (std::size_t b = 0; b < blk_qmin_.size(); ++b) {
        double lo = colq_[b * gridk::kBlock];
        double hi = lo;
        for (std::size_t l = 1; l < gridk::kBlock; ++l) {
            const double q = colq_[b * gridk::kBlock + l];
            lo = std::min(lo, q);
            hi = std::max(hi, q);
        }
        blk_qmin_[b] = lo;
        blk_qmax_[b] = hi;
    }
    for (std::size_t iy = 0; iy < ny_; ++iy) {
        const double dy = y0 + static_cast<double>(iy) * cell_h_;
        row_qy_[iy] = dy * dy;
    }

    gridk::ApplyPlan plan{cells_.data(),    stride_,          ny_,
                          colq_.data(),     blk_qmin_.data(), blk_qmax_.data(),
                          row_qy_.data()};
    const double total = gridk::apply_and_sum(plan, kernel);
    if (total <= 0.0) {
        // Defensive: cannot happen with a positive floor, but never leave the
        // grid in a broken state.
        reset_uniform();
        return;
    }
    scale_and_refresh_stats(total);
}

void BayesGrid::apply_serial(const geom::Vec2& anchor_position,
                             const RadialKernel& kernel) {
    // Sweep in squared-distance space: q = dy² + dx², with dx² advanced by
    // incremental deltas ((dx+w)² = dx² + 2w·dx + w², and the delta itself
    // grows by 2w² per step) — two adds per cell instead of a distance.
    metrics::KahanSum sum;
    const double w = cell_w_;
    const double dx0 = config_.area.min.x + 0.5 * cell_w_ - anchor_position.x;
    const double y0 = config_.area.min.y + 0.5 * cell_h_ - anchor_position.y;
    const double step_growth = 2.0 * w * w;
    for (std::size_t iy = 0; iy < ny_; ++iy) {
        const double dy = y0 + static_cast<double>(iy) * cell_h_;
        const double qy = dy * dy;
        double qx = dx0 * dx0;
        double step = 2.0 * dx0 * w + w * w;
        double* row = cells_.data() + iy * stride_;
        for (std::size_t ix = 0; ix < nx_; ++ix) {
            const double v = row[ix] * kernel.eval_q(qy + qx);
            row[ix] = v;
            sum.add(v);
            qx += step;
            step += step_growth;
        }
    }
    const double total = sum.value();
    if (total <= 0.0) {
        reset_uniform();
        return;
    }
    // Sequential fused normalize + moments — the scalar twin of
    // gridk::scale_and_moments.
    const double inv = 1.0 / total;
    metrics::KahanSum mass, sx, sy, sxx, syy;
    for (std::size_t iy = 0; iy < ny_; ++iy) {
        const double y = row_y_[iy];
        const double y2 = row_y2_[iy];
        double* row = cells_.data() + iy * stride_;
        for (std::size_t ix = 0; ix < nx_; ++ix) {
            const double c = row[ix] * inv;
            row[ix] = c;
            mass.add(c);
            sx.add(c * colx_[ix]);
            sy.add(c * y);
            sxx.add(c * colx2_[ix]);
            syy.add(c * y2);
        }
    }
    finish_stats({mass.value(), sx.value(), sy.value(), sxx.value(), syy.value()});
}

void BayesGrid::apply_kernel(const geom::Vec2& anchor_position, const RadialKernel& kernel) {
    if (gridk::force_path() == gridk::ForcePath::Serial) {
        apply_serial(anchor_position, kernel);
        return;
    }
    apply_blocked(anchor_position, kernel);
}

void BayesGrid::apply_constraint(const geom::Vec2& anchor_position,
                                 const phy::DistancePdf& pdf) {
    obs::ProfileScope profile("core.apply_constraint");
    if (pdf.sigma_m <= 0.0) {
        throw std::invalid_argument("BayesGrid: constraint PDF has no spread");
    }
    apply_kernel(anchor_position, kernel_for(pdf));
}

void BayesGrid::apply_constraint_exact(const geom::Vec2& anchor_position,
                                       const phy::DistancePdf& pdf) {
    obs::ProfileScope profile("core.apply_constraint_exact");
    if (pdf.sigma_m <= 0.0) {
        throw std::invalid_argument("BayesGrid: constraint PDF has no spread");
    }
    const double peak = 1.0 / (pdf.sigma_m * std::sqrt(2.0 * 3.14159265358979323846));
    const double floor = config_.floor_fraction * peak;

    metrics::KahanSum sum;
    for (std::size_t iy = 0; iy < ny_; ++iy) {
        double* row = cells_.data() + iy * stride_;
        for (std::size_t ix = 0; ix < nx_; ++ix) {
            const double d = geom::distance(cell_center(ix, iy), anchor_position);
            const double v = row[ix] * (pdf.density(d) + floor);
            row[ix] = v;
            sum.add(v);
        }
    }
    const double total = sum.value();
    if (total <= 0.0) {
        reset_uniform();
        return;
    }
    scale_and_refresh_stats(total);
}

geom::Vec2 BayesGrid::map_estimate() const {
    std::size_t best_ix = 0;
    std::size_t best_iy = 0;
    double best = -1.0;
    for (std::size_t iy = 0; iy < ny_; ++iy) {
        const double* row = cells_.data() + iy * stride_;
        for (std::size_t ix = 0; ix < nx_; ++ix) {
            if (row[ix] > best) {
                best = row[ix];
                best_ix = ix;
                best_iy = iy;
            }
        }
    }
    return cell_center(best_ix, best_iy);
}

double BayesGrid::total_mass() const { return metrics::pairwise_sum(cells_); }

}  // namespace cocoa::core
