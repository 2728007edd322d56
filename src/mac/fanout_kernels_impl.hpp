// Blocked fanout-kernel implementation, instantiated once per ISA.
//
// Each translation unit defines COCOA_FANOUT_ISA_NS (baseline / avx2 /
// avx512) and includes this header; the only difference between
// instantiations is the -m ISA flags the TU is compiled with. The squared-
// distance pass, the settle steps and the exact draw's arithmetic are
// GCC/Clang vector extensions over a fixed 8-lane block (integer ops, and
// mul/add/div/compare on doubles with contraction disabled per TU, so every
// ISA computes the same bits). sqrt runs per lane through std::sqrt, and the
// channel terms and logs run per lane in ascending lane order through the
// out-of-line phy::Channel calls and the libm functions the medium's scalar
// draw uses. Correctly-rounded sqrt and division plus shared out-of-line
// math means every instantiation produces byte-identical outputs; the
// golden digests, rerun in the portable (COCOA_SIMD=OFF) build, pin this
// down.
//
// This header must only be included by the fanout_kernels*.cpp TUs.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "mac/fanout_kernels.hpp"
#include "phy/channel.hpp"
#include "sim/lanes.hpp"

namespace cocoa::mac::fanout {
namespace COCOA_FANOUT_ISA_NS {

using namespace sim::lanes;

namespace {

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

/// Polar attempts the settle pass makes before it first tests whether every
/// lane has its pair: all lanes accept within three with probability ~0.92.
constexpr int kEagerAttempts = 3;

inline vd sqrt_lanes(vd x) {
    for (std::size_t l = 0; l < kBlock; ++l) x[l] = std::sqrt(x[l]);
    return x;
}

/// Kept lanes waiting for the exact draw, with their accepted polar pair and
/// v = 1 - u, u the uniform after the pair (the fade's). At most kBlock - 1
/// lanes wait between groups, and settle() writes a whole group past them.
struct DrawQueue {
    std::size_t n = 0;
    std::uint32_t lane[2 * kBlock];
    double y[2 * kBlock];
    double r2[2 * kBlock];
    double v[2 * kBlock];
};

/// Channel::sample_rssi_or_quiet for one lane, from its key: the reference
/// for the lanes the vector draw does not take.
void draw_scalar(const CullPlan& p, std::uint32_t i, double mean, double sigma,
                 double fade) {
    sim::SplitMix64 rng(rssi_key(p.frame_key, p.ids[p.idx[i]]));
    const std::optional<double> rssi =
        p.gaps->channel->sample_rssi_or_quiet(mean, sigma, fade, rng);
    p.verdict[i] = rssi ? Verdict::kHeard : Verdict::kQuiet;
    if (rssi) p.rssi_dbm[i] = *rssi;
}

void draw_scalar(const CullPlan& p, std::uint32_t i) {
    const phy::Channel& ch = *p.gaps->channel;
    const double d = std::sqrt(p.dq[i]);
    draw_scalar(p, i, ch.mean_rssi_dbm(d), ch.shadowing_sigma_db(d), ch.fade_mean_db(d));
}

/// Settles up to kBlock kept lanes, `lanes[0, n)`, whose squared distances
/// are `q`: step 1, then step 2 (GapTable) for the lanes step 1 leaves.
/// Lanes with no accepted polar pair take the scalar draw; the rest join
/// `queue` for the exact draw.
void settle(const CullPlan& p, const std::uint32_t* lanes, std::size_t n, vd q,
            DrawQueue& queue) {
    const GapTable& t = *p.gaps;
    const phy::ChannelConfig& cfg = t.channel->config();
    // Per-lane table rows: kept lanes lie within r2, so the index is at most
    // kGapBuckets before the clamp (dq * inv_width may round up to it).
    vd gap_sq = bcast(-1.0);
    vd sigma_sq = bcast(0.0);
    vd mean_ub = bcast(0.0);
    vd sigma_ub = bcast(0.0);
    vd sigma_lb = bcast(0.0);
    vd fade_lb = bcast(0.0);
    vu id = {};
    const vm live = vu{0, 1, 2, 3, 4, 5, 6, 7} < n;
    for (std::size_t l = 0; l < n; ++l) {
        const auto b = std::min(kGapBuckets - 1,
                                static_cast<std::size_t>(q[l] * t.inv_width));
        const GapTable::Bucket& row = t.buckets[b];
        gap_sq[l] = row.gap_sq;
        sigma_sq[l] = row.sigma_sq;
        mean_ub[l] = row.mean_ub;
        sigma_ub[l] = row.sigma_ub;
        sigma_lb[l] = row.sigma_lb;
        fade_lb[l] = row.fade_lb;
        id[l] = p.ids[p.idx[lanes[l]]];
    }
    // rssi_key, then SplitMix64::polar() from it: the first accepted pair of
    // each lane, and the generator state right after it; lanes still
    // unaccepted after kPolarAttempts take the scalar draw. The first
    // kEagerAttempts run without a test in between: a group needs two or
    // three in most cases, and a data-dependent exit would mispredict.
    vu state = splitmix64_mix(p.frame_key ^ splitmix64_mix(id + 0x51ed2701ull));
    vu after = state;
    vm pending = live;
    vm accepted = {};
    vd y = bcast(0.0);
    vd r2 = bcast(1.0);
    for (int attempt = 0; attempt < kPolarAttempts && (attempt < kEagerAttempts || any(pending));
         ++attempt) {
        state += 0x9e3779b97f4a7c15ull;
        const vd xa = 2.0 * canonical(mix_out(state)) - 1.0;
        state += 0x9e3779b97f4a7c15ull;
        const vd ya = 2.0 * canonical(mix_out(state)) - 1.0;
        const vd ra = xa * xa + ya * ya;
        const vm ok = pending & ~((ra > 1.0) | (ra == 0.0));
        y = ok ? ya : y;
        r2 = ok ? ra : r2;
        after = ok ? state : after;
        accepted |= ok;
        pending &= ~ok;
    }
    // Step 1: Channel::sample_rssi_or_quiet's quiet test with sigma_ub and
    // gap_lb in place of the lane's own sigma and gap, in the same
    // association.
    const vd lhs = 2.0 * y * y * (1.0 - r2) * sigma_sq;
    const vd rhs = gap_sq * (r2 * r2);
    const vm quiet = accepted & (gap_sq > 0.0) & ((y <= 0.0) | (lhs <= rhs));
    // Step 2, on the lanes step 1 leaves in buckets where sigma > 0: the
    // draw's shadow is at most min(sigma_ub z_ub, clamp sigma_ub) and its
    // fade at least fade_lb x_lb.
    const vd v = 1.0 - canonical(mix_out(after + 0x9e3779b97f4a7c15ull));
    vm unsensed = accepted & ~quiet & (sigma_lb > 0.0);
    if (any(unsensed)) {
        const vd z_ub = y > 0.0 ? y * sqrt_lanes(2.0 * (1.0 - r2)) / r2 : bcast(0.0);
        const vd cap_ub = cfg.shadowing_clamp_sigmas * sigma_ub;
        const vd shadow = sigma_ub * z_ub;
        const vd shadow_ub = shadow < cap_ub ? shadow : cap_ub;
        const vd x_lb = 2.0 * (1.0 - v) / (1.0 + v);
        const vd bound = (mean_ub + shadow_ub) - fade_lb * x_lb;
        unsensed &= bound < bcast(cfg.carrier_sense_dbm - phy::Channel::kQuietMarginDb);
    }
    // The verdicts, and the queue compacted without a branch per lane (the
    // settled/queued split is data-dependent): every lane is written at the
    // queue's end, and only a queued one advances it. A queued lane's
    // verdict is a placeholder until draw() writes it.
    const vm queued = accepted & ~quiet & ~unsensed;
    for (std::size_t l = 0; l < n; ++l) {
        const std::uint32_t i = lanes[l];
        p.verdict[i] = quiet[l] != 0 ? Verdict::kSettledQuiet : Verdict::kSettledUnsensed;
        queue.lane[queue.n] = i;
        queue.y[queue.n] = y[l];
        queue.r2[queue.n] = r2[l];
        queue.v[queue.n] = v[l];
        queue.n += static_cast<std::size_t>(queued[l] & 1);
    }
    if (any(live & ~accepted)) {
        for (std::size_t l = 0; l < n; ++l) {
            if (accepted[l] == 0) draw_scalar(p, lanes[l]);
        }
    }
}

/// The exact draw of the first min(kBlock, queue.n) queued lanes, which then
/// leave the queue: Channel::sample_rssi_or_quiet's operation sequence from
/// the lane's own channel terms and the queued pair and uniform, in the
/// same association.
void draw(const CullPlan& p, DrawQueue& queue) {
    const phy::Channel& ch = *p.gaps->channel;
    const phy::ChannelConfig& cfg = ch.config();
    const std::size_t n = std::min(kBlock, queue.n);
    // Padding lanes draw a harmless deviate (y = 0, r2 = 1) and are never
    // written back.
    vd y = bcast(0.0);
    vd r2 = bcast(1.0);
    vd mean = bcast(0.0);
    vd sigma = bcast(1.0);
    vd fade = bcast(0.0);
    for (std::size_t l = 0; l < n; ++l) {
        const double d = std::sqrt(p.dq[queue.lane[l]]);
        mean[l] = ch.mean_rssi_dbm(d);
        sigma[l] = ch.shadowing_sigma_db(d);
        fade[l] = ch.fade_mean_db(d);
        y[l] = queue.y[l];
        r2[l] = queue.r2[l];
    }
    // The quiet test (sigma > 0 lanes; the others take the scalar draw).
    const vd gap = (cfg.carrier_sense_dbm - phy::Channel::kQuietMarginDb) - mean;
    const vm quiet =
        (mean < cfg.carrier_sense_dbm) &
        ((y <= 0.0) | ((gap > 0.0) & (2.0 * y * y * (1.0 - r2) * (sigma * sigma) <=
                                      gap * gap * (r2 * r2))));
    vd log_r2 = bcast(0.0);
    vd log_v = bcast(0.0);
    for (std::size_t l = 0; l < n; ++l) {
        if (quiet[l] != 0 || !(sigma[l] > 0.0)) continue;
        log_r2[l] = std::log(r2[l]);
        if (fade[l] > 0.0) log_v[l] = std::log(queue.v[l]);
    }
    // SplitMix64::Polar::sample(0, sigma), then Channel::finish_rssi: the
    // clamp as std::clamp's min(max(shadow, -cap), cap), and
    // SplitMix64::exponential(fade) = -log(1 - u) / (1 / fade).
    const vd shadow = y * sqrt_lanes(-2.0 * log_r2 / r2) * sigma + 0.0;
    const vd cap = cfg.shadowing_clamp_sigmas * sigma;
    vd clamped = shadow < -cap ? -cap : shadow;
    clamped = cap < clamped ? cap : clamped;
    const vd rssi = mean + clamped;
    const vd faded = fade > 0.0 ? rssi - (-log_v) / (1.0 / fade) : rssi;
    for (std::size_t l = 0; l < n; ++l) {
        const std::uint32_t i = queue.lane[l];
        if (!(sigma[l] > 0.0)) {
            // No polar pair in the draw at all: the fade takes the key's
            // first uniform.
            draw_scalar(p, i, mean[l], sigma[l], fade[l]);
        } else if (quiet[l] != 0) {
            p.verdict[i] = Verdict::kQuiet;
        } else {
            p.verdict[i] = Verdict::kHeard;
            p.rssi_dbm[i] = faded[l];
        }
    }
    queue.n -= n;
    for (std::size_t l = 0; l < queue.n; ++l) {
        queue.lane[l] = queue.lane[n + l];
        queue.y[l] = queue.y[n + l];
        queue.r2[l] = queue.r2[n + l];
        queue.v[l] = queue.v[n + l];
    }
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
        // Kept lanes compacted without a branch per lane (which lanes fall
        // inside the radius is data-dependent), the way settle() compacts its
        // draw queue: every lane stores its squared distance and writes its
        // index at the kept list's end, and only a kept lane advances it.
        // kept <= base + l, so the write stays inside the batch.
        store(p.dq + base, dq);
        for (std::size_t l = 0; l < kBlock; ++l) {
            const auto in = static_cast<std::uint8_t>(within[l] & 1);
            p.keep[base + l] = in;
            p.kept_lanes[kept] = static_cast<std::uint32_t>(base + l);
            kept += in;
        }
    }
    // Settle kBlock kept lanes at a time, and draw the lanes left whenever
    // kBlock of them have queued up, so a group with one live lane does not
    // pay for a whole block.
    DrawQueue queue;
    for (std::size_t g = 0; g < kept; g += kBlock) {
        const std::uint32_t* lanes = p.kept_lanes + g;
        const std::size_t n = std::min(kBlock, kept - g);
        vd q = bcast(-1.0);
        for (std::size_t l = 0; l < n; ++l) q[l] = p.dq[lanes[l]];
        settle(p, lanes, n, q, queue);
        if (queue.n >= kBlock) draw(p, queue);
    }
    while (queue.n > 0) draw(p, queue);
    return kept;
}

}  // namespace COCOA_FANOUT_ISA_NS
}  // namespace cocoa::mac::fanout
