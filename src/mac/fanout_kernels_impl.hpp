// Blocked fanout-kernel implementation, instantiated once per ISA.
//
// Each translation unit defines COCOA_FANOUT_ISA_NS (baseline / avx2 /
// avx512) and includes this header; the only difference between
// instantiations is the -m ISA flags the TU is compiled with. The squared-
// distance pass and the settle pass are GCC/Clang vector extensions over a
// fixed 8-lane block (integer ops, and mul/add/compare on doubles with
// contraction disabled per TU, so every ISA computes the same bits), and
// the per-lane finish — sqrt plus the three channel terms — runs in
// ascending lane order through out-of-line phy::Channel calls, which are the
// very functions the medium's unculled sweep uses. Correctly-rounded sqrt
// plus shared out-of-line channel math means every instantiation produces
// byte-identical outputs; the golden digests, rerun in the portable
// (COCOA_SIMD=OFF) build, pin this down.
//
// This header must only be included by the fanout_kernels*.cpp TUs.

#include <algorithm>
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
typedef std::uint64_t vu __attribute__((vector_size(kBlock * sizeof(std::uint64_t))));
/// What a vd compare yields: all-ones lanes where true.
typedef std::int64_t vm __attribute__((vector_size(kBlock * sizeof(std::int64_t))));

inline vd load(const double* p) {
    vd v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline vd bcast(double x) { return vd{x, x, x, x, x, x, x, x}; }

inline bool any(vm m) {
    std::int64_t a = m[0];
    for (std::size_t l = 1; l < kBlock; ++l) a |= m[l];
    return a != 0;
}

inline vd as_double(vu u) {
    vd d;
    std::memcpy(&d, &u, sizeof(d));
    return d;
}

/// splitmix64's output function without its leading increment:
/// SplitMix64::operator() is mix_out(state += golden).
inline vu mix_out(vu x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

inline vu splitmix64_mix(vu x) { return mix_out(x + 0x9e3779b97f4a7c15ull); }

/// static_cast<double> of every lane, with no u64 conversion instruction:
/// 2^84 + hi * 2^32 and 2^52 + lo are exact doubles built from the bits, the
/// subtraction is exact, and the final sum rounds once — to the nearest
/// double of hi * 2^32 + lo, which is what the cast returns.
inline vd to_double(vu u) {
    const vd hi = as_double((u >> 32) | 0x4530000000000000ull);
    const vd lo = as_double((u & 0xffffffffull) | 0x4330000000000000ull);
    return (hi - bcast(0x1.00000001p84)) + lo;
}

/// SplitMix64::canonical() per lane.
inline vd canonical(vu bits) {
    const vd u = to_double(bits) * 0x1p-64;
    return u < 1.0 ? u : bcast(0x1.fffffffffffffp-1);
}

/// Settles up to kBlock kept lanes, `lanes[0, n)`, whose squared distances
/// are `q` (padding lanes hold -1). Returns the settle mask.
vm settle(const CullPlan& p, const std::uint32_t* lanes, std::size_t n, vd q) {
    const GapTable& t = *p.gaps;
    // Per-lane table rows: kept lanes lie within r2, so the index is at most
    // kGapBuckets before the clamp (dq * inv_width may round up to it).
    vd gap_sq = bcast(-1.0);
    vd sigma_sq = bcast(0.0);
    vu id = {};
    for (std::size_t l = 0; l < n; ++l) {
        const auto b = std::min(kGapBuckets - 1,
                                static_cast<std::size_t>(q[l] * t.inv_width));
        gap_sq[l] = t.buckets[b].gap_sq;
        sigma_sq[l] = t.buckets[b].sigma_sq;
        id[l] = p.ids[p.idx[lanes[l]]];
    }
    // rssi_key, then SplitMix64::polar() from it: the first accepted pair of
    // each below lane; lanes still unaccepted after kPolarAttempts stay
    // unsettled.
    vu state = splitmix64_mix(p.frame_key ^ splitmix64_mix(id + 0x51ed2701ull));
    vm pending = gap_sq > 0.0;
    vm accepted = {};
    vd y = bcast(0.0);
    vd r2 = bcast(1.0);
    for (int attempt = 0; attempt < kPolarAttempts && any(pending); ++attempt) {
        state += 0x9e3779b97f4a7c15ull;
        const vd xa = 2.0 * canonical(mix_out(state)) - 1.0;
        state += 0x9e3779b97f4a7c15ull;
        const vd ya = 2.0 * canonical(mix_out(state)) - 1.0;
        const vd ra = xa * xa + ya * ya;
        const vm ok = pending & ~((ra > 1.0) | (ra == 0.0));
        y = ok ? ya : y;
        r2 = ok ? ra : r2;
        accepted |= ok;
        pending &= ~ok;
    }
    // Channel::sample_rssi_or_quiet's quiet test with sigma_ub and gap_lb in
    // place of the lane's own sigma and gap, in the same association.
    const vd lhs = 2.0 * y * y * (1.0 - r2) * sigma_sq;
    const vd rhs = gap_sq * (r2 * r2);
    return accepted & ((y <= 0.0) | (lhs <= rhs));
}

}  // namespace

std::size_t cull_and_prepare(const CullPlan& p) {
    const vd txx = bcast(p.tx_x);
    const vd txy = bcast(p.tx_y);
    const vd r2v = bcast(p.gaps->r2);
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
        // the OR-reduce rejects fully-culled blocks — the common case in a
        // dense window, where most candidates are interference-range only —
        // with no per-lane work at all. NaN-free: dq is +inf at worst.
        const vm within = dq <= r2v;
        if (!any(within)) {
            std::memset(p.keep + base, 0, kBlock);
            continue;
        }
        for (std::size_t l = 0; l < kBlock; ++l) {
            const std::size_t i = base + l;
            p.keep[i] = within[l] != 0;
            if (within[l] == 0) continue;
            p.dq[i] = dq[l];
            p.kept_lanes[kept] = static_cast<std::uint32_t>(i);
            ++kept;
        }
    }
    // Settle, then finish the lanes left unsettled, kBlock kept lanes at a
    // time. A group with no lane as far as the first below bucket skips the
    // settle pass: in a dense window most receivers hear the frame.
    const vd below_dq = bcast(p.gaps->below_dq);
    for (std::size_t g = 0; g < kept; g += kBlock) {
        const std::uint32_t* lanes = p.kept_lanes + g;
        const std::size_t n = std::min(kBlock, kept - g);
        vd q = bcast(-1.0);
        for (std::size_t l = 0; l < n; ++l) q[l] = p.dq[lanes[l]];
        const vm settled = any(q >= below_dq) ? settle(p, lanes, n, q) : vm{};
        for (std::size_t l = 0; l < n; ++l) {
            const std::size_t i = lanes[l];
            p.settled[i] = settled[l] != 0;
            if (settled[l] != 0) continue;
            const double d = std::sqrt(q[l]);
            p.dist[i] = d;
            p.mean_dbm[i] = p.gaps->channel->mean_rssi_dbm(d);
            p.sigma_db[i] = p.gaps->channel->shadowing_sigma_db(d);
            p.fade_db[i] = p.gaps->channel->fade_mean_db(d);
        }
    }
    return kept;
}

}  // namespace COCOA_FANOUT_ISA_NS
}  // namespace cocoa::mac::fanout

#pragma GCC diagnostic pop
