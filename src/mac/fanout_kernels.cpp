// Baseline instantiation of the fanout kernels + runtime dispatch.
//
// This TU is compiled with the project's default ISA flags, so the vector-
// extension code lowers to SSE2 on x86-64 and NEON on aarch64 — that is the
// "generic" path, and the arithmetic every other instantiation must match
// byte-for-byte (see fanout_kernels_impl.hpp). The AVX2/AVX-512
// instantiations live in their own TUs with per-file -m flags and are only
// referenced when CMake defines COCOA_FANOUT_X86_DISPATCH (COCOA_SIMD=ON on
// an x86-64 host); the dispatcher picks the widest ISA the CPU reports at
// first use.

#define COCOA_FANOUT_ISA_NS baseline
#include "mac/fanout_kernels_impl.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

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

Dispatch resolve() {
#if defined(COCOA_FANOUT_X86_DISPATCH)
    if (__builtin_cpu_supports("avx512f")) {
        return {&avx512::cull_and_prepare, "avx512"};
    }
    if (__builtin_cpu_supports("avx2")) {
        return {&avx2::cull_and_prepare, "avx2"};
    }
#endif
    return kGeneric;
}

const Dispatch& active() {
    static const Dispatch dispatch = resolve();
    return dispatch;
}

// relaxed is enough: tests flip this from the same thread that next drives
// the medium.
std::atomic<bool> g_force_generic{false};

}  // namespace

void Batch::grow() {
    const std::size_t new_cap = std::max<std::size_t>(64, 2 * idx.size());
    idx.resize(new_cap);
    x.resize(new_cap);
    y.resize(new_cap);
    keep.resize(new_cap);
    dist.resize(new_cap);
    mean_dbm.resize(new_cap);
    sigma_db.resize(new_cap);
    fade_db.resize(new_cap);
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

CullPlan make_plan(Batch& b, geom::Vec2 tx_pos, double r2,
                   const phy::Channel& channel) {
    CullPlan p;
    p.x = b.x.data();
    p.y = b.y.data();
    p.lanes = b.lanes();
    p.tx_x = tx_pos.x;
    p.tx_y = tx_pos.y;
    p.r2 = r2;
    p.channel = &channel;
    p.keep = b.keep.data();
    p.dist = b.dist.data();
    p.mean_dbm = b.mean_dbm.data();
    p.sigma_db = b.sigma_db.data();
    p.fade_db = b.fade_db.data();
    p.kept_lanes = b.kept_lanes.data();
    return p;
}

std::size_t cull_and_prepare(const CullPlan& plan) {
    const Dispatch& d =
        g_force_generic.load(std::memory_order_relaxed) ? kGeneric : active();
    return d.cull(plan);
}

const char* active_isa() { return active().isa; }

void set_force_generic(bool on) { g_force_generic.store(on, std::memory_order_relaxed); }

}  // namespace cocoa::mac::fanout
