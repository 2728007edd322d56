// Blocked grid-kernel implementation, instantiated once per ISA.
//
// Each translation unit defines COCOA_GRIDK_ISA_NS (baseline / avx2 / avx512)
// and includes this header; the only difference between instantiations is the
// -m ISA flags the TU is compiled with. The code is written entirely in
// GCC/Clang vector extensions over a fixed 8-lane block, so:
//
//  - the compiler lowers each whole-block op to the widest vectors the TU's
//    ISA allows (1x zmm on AVX-512, 2x ymm on AVX2, 4x xmm / NEON pairs on
//    the baseline) — the *values* are the same elementwise IEEE operations
//    in every case;
//  - per-lane accumulators and the fixed-order lane reduction make the
//    summation order part of the algorithm, not of the ISA;
//  - Hermite-table lookups are per-lane scalar loads (indices are exact, so
//    gathers vs scalar loads cannot change results);
//  - blocks touching the kernel's certified-exact region (or straddling the
//    lower band edge) fall back to scalar RadialKernel::eval_q per lane,
//    which is the same libm sqrt/exp everywhere.
//
// Together with -ffp-contract=off on every instantiation (so no ISA gains
// FMA contractions another lacks), this makes all instantiations produce
// byte-identical grids — the property the golden digests pin when CI reruns
// them in the portable (COCOA_SIMD=OFF) build.
//
// This header must only be included by the grid_kernels*.cpp TUs.

#include <cstdint>
#include <cstring>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "core/grid_kernels.hpp"
#include "core/radial_kernel.hpp"
#include "metrics/sum.hpp"

// Vectors wider than the baseline ISA are passed via memory; that is fine
// (everything here inlines into the two entry points) but gcc notes the ABI
// difference per function otherwise.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace cocoa::core::gridk {
namespace COCOA_GRIDK_ISA_NS {

namespace {

typedef double vd __attribute__((vector_size(kBlock * sizeof(double))));
typedef std::int64_t vm __attribute__((vector_size(kBlock * sizeof(std::int64_t))));
typedef std::int32_t vi __attribute__((vector_size(kBlock * sizeof(std::int32_t))));

inline vd load(const double* p) {
    vd v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline void store(double* p, vd v) { std::memcpy(p, &v, sizeof(v)); }

inline vd bcast(double x) { return vd{x, x, x, x, x, x, x, x}; }

/// Per-lane compensated accumulator using branch-free TwoSum (Knuth): the
/// error term is exact for any operand magnitudes, so like Neumaier the
/// accumulated drift is independent of cell count — at six vector ops per
/// update instead of eleven, and with no selects. Every instantiation runs
/// this exact expression sequence, so lane values are ISA-independent.
struct KahanLanes {
    vd sum = bcast(0.0);
    vd comp = bcast(0.0);

    inline void add(vd x) {
        const vd t = sum + x;
        const vd z = t - sum;
        comp = comp + ((sum - (t - z)) + (x - z));
        sum = t;
    }
};

/// apply_and_sum rotates over this many independent KahanLanes accumulators
/// (block index modulo 4): the Neumaier update is a ~4-add dependency chain,
/// so a single accumulator serializes every block on its latency. Like
/// kBlock, this is part of the fixed reduction tree, not a tuning knob.
inline constexpr std::size_t kSumStripes = 4;

/// Fixed-order reduction of the striped accumulators: all sums (stripe-major,
/// lanes 0..7 within each), then all comps, folded through one scalar
/// Neumaier accumulator. This order is part of the deterministic contract.
inline double reduce(const KahanLanes (&acc)[kSumStripes]) {
    metrics::KahanSum k;
    for (std::size_t a = 0; a < kSumStripes; ++a)
        for (std::size_t l = 0; l < kBlock; ++l) k.add(acc[a].sum[l]);
    for (std::size_t a = 0; a < kSumStripes; ++a)
        for (std::size_t l = 0; l < kBlock; ++l) k.add(acc[a].comp[l]);
    return k.value();
}

/// Fixed-order lane reduction of a plain lane accumulator.
inline double reduce_lanes(vd v) {
    metrics::KahanSum k;
    for (std::size_t l = 0; l < kBlock; ++l) k.add(v[l]);
    return k.value();
}

}  // namespace

double apply_and_sum(const ApplyPlan& p, const RadialKernel& k) {
    const double q_lo = k.q_lo();
    const double q_hi = k.q_hi();
    const double q_exact = k.q_exact();
    const double fl = k.floor();
    const vd v_q_lo = bcast(q_lo);
    const vd v_q_hi = bcast(q_hi);
    const vd v_inv_dq = bcast(k.inv_dq());
    const vd v_floor = bcast(fl);
    const std::int32_t imax = static_cast<std::int32_t>(k.interval_count()) - 1;
    const vi v_imax = {imax, imax, imax, imax, imax, imax, imax, imax};
    const double* value = k.values();
    const double* slope = k.slopes();

    const std::size_t blocks = p.stride / kBlock;
    KahanLanes acc[kSumStripes];
    for (std::size_t iy = 0; iy < p.ny; ++iy) {
        const double qy = p.row_qy[iy];
        const vd v_qy = bcast(qy);
        double* row = p.cells + iy * p.stride;
        for (std::size_t b = 0; b < blocks; ++b) {
            double* cp = row + b * kBlock;
            vd c = load(cp);
            // Block classification from the precomputed per-block colq range;
            // scalar double compares, so every ISA takes the same branch.
            const double q_min = qy + p.blk_qmin[b];
            const double q_max = qy + p.blk_qmax[b];
            if (q_max < q_lo || q_min >= q_hi) {
                // Whole block outside the kernel band: floor everywhere. For
                // ring constraints this is most of the grid.
                c = c * v_floor;
            } else if (q_min >= q_exact) {
                // Table (or upper-floor) territory: vector Hermite,
                // lane-exact mirror of RadialKernel::eval_q. q_min >= q_exact
                // implies q_min >= q_lo, so only the upper band edge can cut
                // through the block; interior blocks — the common case — skip
                // the masking entirely.
                const vd q = v_qy + load(&p.colq[b * kBlock]);
                vd q_eff = q;
                vm in_band{};
                const bool straddles = q_max >= q_hi;
                if (straddles) {
                    in_band = q < v_q_hi;
                    // Out-of-band lanes are clamped to q_lo before the index
                    // math so their (discarded) table access stays in range.
                    q_eff = in_band ? q : v_q_lo;
                }
                const vd s = (q_eff - v_q_lo) * v_inv_dq;
                vi i = __builtin_convertvector(s, vi);
                i = i > v_imax ? v_imax : i;
                const vd t = s - __builtin_convertvector(i, vd);
                const vd t2 = t * t;
                const vd t3 = t2 * t;
                const vd h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
                const vd h10 = t3 - 2.0 * t2 + t;
                const vd h01 = 3.0 * t2 - 2.0 * t3;
                const vd h11 = t3 - t2;
                // Table loads: hardware gathers where the ISA has them,
                // per-lane scalar loads staged through aligned buffers
                // otherwise. Both read exactly the same doubles, so this is
                // the one place the instantiations may differ in instructions
                // without differing in results.
#if defined(__AVX512F__)
                __m256i vidx;
                std::memcpy(&vidx, &i, sizeof(vidx));
                vd v0, s0, v1, s1;
                {
                    // The all-lanes masked form: the plain gather's
                    // undefined-source pass-through trips gcc's
                    // maybe-uninitialized analysis under -Werror.
                    const __m512d z = _mm512_setzero_pd();
                    const __m512d g0 = _mm512_mask_i32gather_pd(z, 0xff, vidx, value, 8);
                    const __m512d g1 = _mm512_mask_i32gather_pd(z, 0xff, vidx, slope, 8);
                    const __m512d g2 = _mm512_mask_i32gather_pd(z, 0xff, vidx, value + 1, 8);
                    const __m512d g3 = _mm512_mask_i32gather_pd(z, 0xff, vidx, slope + 1, 8);
                    std::memcpy(&v0, &g0, sizeof(v0));
                    std::memcpy(&s0, &g1, sizeof(s0));
                    std::memcpy(&v1, &g2, sizeof(v1));
                    std::memcpy(&s1, &g3, sizeof(s1));
                }
#else
                alignas(64) std::int32_t idx[kBlock];
                std::memcpy(idx, &i, sizeof(i));
                alignas(64) double b_v0[kBlock], b_s0[kBlock];
                alignas(64) double b_v1[kBlock], b_s1[kBlock];
                for (std::size_t l = 0; l < kBlock; ++l) {
                    const auto j = static_cast<std::size_t>(idx[l]);
                    b_v0[l] = value[j];
                    b_s0[l] = slope[j];
                    b_v1[l] = value[j + 1];
                    b_s1[l] = slope[j + 1];
                }
                const vd v0 = load(b_v0), s0 = load(b_s0);
                const vd v1 = load(b_v1), s1 = load(b_s1);
#endif
                vd r = h00 * v0 + h10 * s0 + h01 * v1 + h11 * s1 + fl;
                if (straddles) r = in_band ? r : v_floor;
                c = c * r;
            } else {
                // Block touches the certified-exact region (or straddles the
                // lower band edge): scalar eval_q per lane — identical values
                // on every ISA, and exactly what the table path would yield
                // for its non-exact lanes.
                for (std::size_t l = 0; l < kBlock; ++l) {
                    c[l] = c[l] * k.eval_q(qy + p.colq[b * kBlock + l]);
                }
            }
            store(cp, c);
            acc[b % kSumStripes].add(c);
        }
    }
    return reduce(acc);
}

Moments scale_and_moments(const ScalePlan& p) {
    const vd sc = bcast(p.scale);
    const std::size_t blocks = p.stride / kBlock;
    // Five whole-grid lane accumulators, reduced once at the end. These are
    // plain (uncompensated) lane sums: the moments only feed the posterior
    // mean/spread, where even a million-cell grid leaves the relative error
    // around 1e-11 — far inside every consumer's tolerance — while the
    // normalization total (the number that must hold mass drift at 1e-12)
    // comes from apply_and_sum's compensated pass. Five independent add
    // chains also keep this pass throughput-bound instead of serializing on
    // a Neumaier update's latency.
    vd mass = bcast(0.0), sx = bcast(0.0), sy = bcast(0.0);
    vd sxx = bcast(0.0), syy = bcast(0.0);
    for (std::size_t iy = 0; iy < p.ny; ++iy) {
        double* row = p.cells + iy * p.stride;
        const vd v_y = bcast(p.row_y[iy]);
        const vd v_y2 = bcast(p.row_y2[iy]);
        for (std::size_t b = 0; b < blocks; ++b) {
            double* cp = row + b * kBlock;
            const vd c = load(cp) * sc;
            store(cp, c);
            mass = mass + c;
            sx = sx + c * load(&p.colx[b * kBlock]);
            sy = sy + c * v_y;
            sxx = sxx + c * load(&p.colx2[b * kBlock]);
            syy = syy + c * v_y2;
        }
    }
    return {reduce_lanes(mass), reduce_lanes(sx), reduce_lanes(sy),
            reduce_lanes(sxx), reduce_lanes(syy)};
}

}  // namespace COCOA_GRIDK_ISA_NS
}  // namespace cocoa::core::gridk

#pragma GCC diagnostic pop
