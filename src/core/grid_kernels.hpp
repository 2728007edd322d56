#pragma once

#include <cstddef>

namespace cocoa::core {

class RadialKernel;

/// Blocked grid kernels behind BayesGrid's hot loops.
///
/// BayesGrid stores its masses in a blocked SoA layout: rows are padded to a
/// multiple of sim::isa::kBlock doubles (padding cells carry zero mass
/// forever), and all per-column operands the loops need — squared x-offsets
/// for the constraint sweep, centred x and x² for the moment pass — live in
/// separate padded arrays. Every hot loop then works on whole blocks of
/// kBlock lanes with per-lane accumulators, which is exactly the shape both
/// the portable implementation and the AVX2/AVX-512 instantiations execute
/// (sim::isa selects one).
///
/// Determinism contract: every variant performs the *identical* sequence of
/// IEEE double operations per lane (same expressions, same blend semantics,
/// contraction disabled on all kernel translation units), per-lane Neumaier
/// accumulators are reduced in fixed lane order, and near-anchor blocks that
/// touch the kernel's certified-exact region fall back to the same scalar
/// RadialKernel::eval_q per lane. A -DCOCOA_SIMD=OFF build, the runtime
/// generic path, AVX2 and AVX-512 therefore produce byte-identical grids —
/// the golden digests, rerun in the portable build, pin this down.
namespace gridk {

/// Inputs of the constraint sweep. All pointers come from BayesGrid-owned
/// arrays sized `stride` (per column) or `ny` (per row); `stride` is a
/// multiple of kBlock. colq padding holds +infinity so padding lanes always
/// take the floor branch and keep their zero mass.
struct ApplyPlan {
    double* cells = nullptr;        ///< stride * ny, row-major
    std::size_t stride = 0;
    std::size_t ny = 0;
    const double* colq = nullptr;   ///< (x_cell - x_anchor)² per column
    const double* blk_qmin = nullptr;  ///< min of colq within each block
    const double* blk_qmax = nullptr;  ///< max of colq within each block
    const double* row_qy = nullptr;    ///< (y_cell - y_anchor)² per row
};

/// Multiplies every cell by the kernel at its squared anchor distance and
/// returns the compensated total mass. Dispatched.
double apply_and_sum(const ApplyPlan& plan, const RadialKernel& kernel);

/// Raw moments about the area centre from the fused scale pass.
struct Moments {
    double mass = 0.0;
    double sx = 0.0;
    double sy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
};

/// Inputs of the fused normalize + statistics pass. colx/colx2 are the
/// centred cell-centre x and x² per column (padding zero); row_y/row_y2 the
/// same per row.
struct ScalePlan {
    double* cells = nullptr;
    std::size_t stride = 0;
    std::size_t ny = 0;
    const double* colx = nullptr;
    const double* colx2 = nullptr;
    const double* row_y = nullptr;
    const double* row_y2 = nullptr;
    double scale = 1.0;  ///< usually 1/total from the preceding sweep
};

/// Scales every cell and accumulates the posterior moments in the same pass.
/// Dispatched.
Moments scale_and_moments(const ScalePlan& plan);

/// sim::isa::active(), the name the benchmarks stamp.
const char* active_isa();

}  // namespace gridk
}  // namespace cocoa::core
