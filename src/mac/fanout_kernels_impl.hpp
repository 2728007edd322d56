// Blocked fanout-kernel implementation, instantiated once per ISA.
//
// Each translation unit defines COCOA_FANOUT_ISA_NS (baseline / avx2 /
// avx512) and includes this header; the only difference between
// instantiations is the -m ISA flags the TU is compiled with. The squared-
// distance pass is GCC/Clang vector extensions over a fixed 8-lane block
// (mul/add only, contraction disabled per TU, so every ISA computes the same
// IEEE doubles), and the per-lane finish — sqrt plus the three channel terms
// — runs in ascending lane order through out-of-line phy::Channel calls,
// which are the very functions the medium's unculled sweep uses. Correctly-
// rounded sqrt plus shared out-of-line channel math means every
// instantiation produces byte-identical outputs; the golden digests, rerun
// in the portable (COCOA_SIMD=OFF) build, pin this down.
//
// This header must only be included by the fanout_kernels*.cpp TUs.

#include <cmath>
#include <cstring>

#include "mac/fanout_kernels.hpp"
#include "phy/channel.hpp"

// Vectors wider than the baseline ISA are passed via memory; benign here
// (everything inlines into the entry point) but gcc notes the ABI difference
// per function without the pragma.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace cocoa::mac::fanout {
namespace COCOA_FANOUT_ISA_NS {

namespace {

typedef double vd __attribute__((vector_size(kBlock * sizeof(double))));

inline vd load(const double* p) {
    vd v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline vd bcast(double x) { return vd{x, x, x, x, x, x, x, x}; }

}  // namespace

std::size_t cull_and_prepare(const CullPlan& p) {
    const vd txx = bcast(p.tx_x);
    const vd txy = bcast(p.tx_y);
    const vd r2v = bcast(p.r2);
    const std::size_t blocks = p.lanes / kBlock;
    std::size_t kept = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t base = b * kBlock;
        // Whole-block squared distances: padding lanes hold +inf positions,
        // so dq is +inf there and the cull rejects them like any far radio.
        const vd dx = load(p.x + base) - txx;
        const vd dy = load(p.y + base) - txy;
        const vd dq = dx * dx + dy * dy;
        // Lane mask of the cull compare (all-ones where within the radius);
        // an OR-reduce rejects fully-culled blocks — the common case in a
        // dense window, where most candidates are interference-range only —
        // with no per-lane work at all. NaN-free: dq is +inf at worst.
        const auto within = dq <= r2v;
        long long any = within[0];
        for (std::size_t l = 1; l < kBlock; ++l) any |= within[l];
        if (any == 0) {
            std::memset(p.keep + base, 0, kBlock);
            continue;
        }
        for (std::size_t l = 0; l < kBlock; ++l) {
            const std::size_t i = base + l;
            if (within[l] == 0) {
                p.keep[i] = 0;
                continue;
            }
            p.keep[i] = 1;
            p.kept_lanes[kept] = static_cast<std::uint32_t>(i);
            ++kept;
            const double d = std::sqrt(dq[l]);
            p.dist[i] = d;
            p.mean_dbm[i] = p.channel->mean_rssi_dbm(d);
            p.sigma_db[i] = p.channel->shadowing_sigma_db(d);
            p.fade_db[i] = p.channel->fade_mean_db(d);
        }
    }
    return kept;
}

}  // namespace COCOA_FANOUT_ISA_NS
}  // namespace cocoa::mac::fanout

#pragma GCC diagnostic pop
