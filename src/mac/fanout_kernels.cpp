// Baseline instantiation of the fanout kernels + runtime dispatch.
//
// This TU is compiled with the project's default ISA flags, so the vector-
// extension code lowers to SSE2 on x86-64 and NEON on aarch64 — that is the
// "generic" path, and the arithmetic every other instantiation must match
// byte-for-byte (see fanout_kernels_impl.hpp). The AVX2/AVX-512
// instantiations live in their own TUs with per-file -m flags and are only
// referenced when CMake defines COCOA_FANOUT_X86_DISPATCH (COCOA_SIMD=ON on
// an x86-64 host); the dispatcher picks the widest ISA the CPU reports at
// first use (AVX-512 needs both avx512f and avx512dq).

#define COCOA_FANOUT_ISA_NS baseline
#include "mac/fanout_kernels_impl.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace cocoa::mac::fanout {

#if defined(COCOA_FANOUT_X86_DISPATCH)
namespace avx2 {
std::size_t cull_and_prepare(const CullPlan& plan);
}
namespace avx512 {
std::size_t cull_and_prepare(const CullPlan& plan);
}
#endif

namespace {

struct Dispatch {
    std::size_t (*cull)(const CullPlan&) = nullptr;
    const char* isa = "generic";
};

constexpr Dispatch kGeneric{&baseline::cull_and_prepare, "generic"};
#if defined(COCOA_FANOUT_X86_DISPATCH)
constexpr Dispatch kAvx2{&avx2::cull_and_prepare, "avx2"};
constexpr Dispatch kAvx512{&avx512::cull_and_prepare, "avx512"};
#endif

/// Every instantiation the CPU runs, widest last.
std::vector<const Dispatch*> runnable() {
    std::vector<const Dispatch*> out{&kGeneric};
#if defined(COCOA_FANOUT_X86_DISPATCH)
    if (__builtin_cpu_supports("avx2")) out.push_back(&kAvx2);
    // The AVX-512 TU is built with -mavx512f -mavx512dq (vpmullq for the
    // settle pass's 64-bit multiplies).
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
        out.push_back(&kAvx512);
    }
#endif
    return out;
}

const Dispatch& active() {
    static const Dispatch* const dispatch = runnable().back();
    return *dispatch;
}

// relaxed is enough: tests force an ISA from the same thread that next
// drives the medium.
std::atomic<const Dispatch*> g_forced{nullptr};

}  // namespace

GapTable::GapTable(const phy::Channel& ch, double r2_)
    : channel(&ch),
      r2(r2_),
      inv_width(static_cast<double>(kGapBuckets) / r2_),
      buckets(kGapBuckets) {
    const double width = r2 / static_cast<double>(kGapBuckets);
    // The quiet test's threshold, in the association it computes the gap.
    const double quiet_below = ch.config().carrier_sense_dbm - phy::Channel::kQuietMarginDb;
    // The last distance the sigma ramp covers: from sigma_ramp_end_m on the
    // far constant takes over, which can sit an ulp off the ramp's end.
    const double ramp_last = std::nextafter(ch.config().sigma_ramp_end_m, 0.0);
    for (std::size_t b = 0; b < kGapBuckets; ++b) {
        const double inner = std::sqrt(static_cast<double>(b) * width) * (1.0 - 1e-9);
        const double outer = std::sqrt(static_cast<double>(b + 1) * width) * (1.0 + 1e-9);
        const double mean_ub = ch.mean_rssi_dbm(inner) + 1e-9;
        const double gap = quiet_below - mean_ub;
        double sigma_ub = std::max(ch.shadowing_sigma_db(inner), ch.shadowing_sigma_db(outer));
        double sigma_lb = std::min(ch.shadowing_sigma_db(inner), ch.shadowing_sigma_db(outer));
        if (inner <= ramp_last && ramp_last <= outer) {
            sigma_ub = std::max(sigma_ub, ch.shadowing_sigma_db(ramp_last));
            sigma_lb = std::min(sigma_lb, ch.shadowing_sigma_db(ramp_last));
        }
        buckets[b] = {.gap_sq = gap > 0.0 ? gap * gap : -1.0,
                      .sigma_sq = sigma_ub * sigma_ub,
                      .mean_ub = mean_ub,
                      .sigma_ub = sigma_ub,
                      .sigma_lb = sigma_lb,
                      .fade_lb = std::max(0.0, ch.fade_mean_db(inner) * (1.0 - 1e-9))};
    }
}

void Batch::grow() {
    const std::size_t new_cap = std::max<std::size_t>(64, 2 * idx.size());
    idx.resize(new_cap);
    x.resize(new_cap);
    y.resize(new_cap);
    keep.resize(new_cap);
    dq.resize(new_cap);
    verdict.resize(new_cap);
    rssi_dbm.resize(new_cap);
    kept_lanes.resize(new_cap);
}

void Batch::seal() {
    const std::size_t n = lanes();
    if (n > idx.size()) grow();
    assert(n <= idx.size() && "grow() doubles, so one call always covers a "
                              "partial tail block");
    constexpr double inf = std::numeric_limits<double>::infinity();
    for (std::size_t i = count; i < n; ++i) {
        x[i] = inf;
        y[i] = inf;
    }
}

CullPlan make_plan(Batch& b, geom::Vec2 tx_pos, const GapTable& gaps,
                   const std::uint32_t* ids, std::uint64_t frame_key) {
    CullPlan p;
    p.x = b.x.data();
    p.y = b.y.data();
    p.idx = b.idx.data();
    p.lanes = b.lanes();
    p.tx_x = tx_pos.x;
    p.tx_y = tx_pos.y;
    p.gaps = &gaps;
    p.ids = ids;
    p.frame_key = frame_key;
    p.keep = b.keep.data();
    p.dq = b.dq.data();
    p.verdict = b.verdict.data();
    p.rssi_dbm = b.rssi_dbm.data();
    p.kept_lanes = b.kept_lanes.data();
    return p;
}

std::size_t cull_and_prepare(const CullPlan& plan) {
    const Dispatch* forced = g_forced.load(std::memory_order_relaxed);
    return (forced != nullptr ? *forced : active()).cull(plan);
}

const char* active_isa() { return active().isa; }

std::vector<const char*> runnable_isas() {
    std::vector<const char*> names;
    for (const Dispatch* d : runnable()) names.push_back(d->isa);
    return names;
}

void force_isa(const char* isa) {
    if (isa == nullptr) {
        g_forced.store(nullptr, std::memory_order_relaxed);
        return;
    }
    for (const Dispatch* d : runnable()) {
        if (std::strcmp(d->isa, isa) == 0) {
            g_forced.store(d, std::memory_order_relaxed);
            return;
        }
    }
    throw std::invalid_argument(std::string("fanout::force_isa: '") + isa +
                                "' is not an instantiation this build and CPU run");
}

}  // namespace cocoa::mac::fanout
