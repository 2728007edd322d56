// Baseline instantiation of the blocked grid kernels + runtime dispatch.
//
// This TU is compiled with the project's default ISA flags, so the vector-
// extension code lowers to SSE2 on x86-64 and NEON on aarch64 — that is the
// "generic" path, and the arithmetic every other instantiation must match
// byte-for-byte (see grid_kernels_impl.hpp). The AVX2/AVX-512 instantiations
// live in their own TUs with per-file -m flags and are only referenced when
// CMake defines COCOA_GRIDK_X86_DISPATCH (COCOA_SIMD=ON on an x86-64 host);
// the dispatcher then picks the widest ISA the CPU reports at first use.

#define COCOA_GRIDK_ISA_NS baseline
#include "core/grid_kernels_impl.hpp"

#include <atomic>

namespace cocoa::core::gridk {

#if defined(COCOA_GRIDK_X86_DISPATCH)
namespace avx2 {
double apply_and_sum(const ApplyPlan& plan, const RadialKernel& kernel);
Moments scale_and_moments(const ScalePlan& plan);
}  // namespace avx2
namespace avx512 {
double apply_and_sum(const ApplyPlan& plan, const RadialKernel& kernel);
Moments scale_and_moments(const ScalePlan& plan);
}  // namespace avx512
#endif

namespace {

struct Dispatch {
    double (*apply)(const ApplyPlan&, const RadialKernel&) = nullptr;
    Moments (*scale)(const ScalePlan&) = nullptr;
    const char* isa = "generic";
};

constexpr Dispatch kGeneric{&baseline::apply_and_sum, &baseline::scale_and_moments,
                            "generic"};

Dispatch resolve() {
#if defined(COCOA_GRIDK_X86_DISPATCH)
    if (__builtin_cpu_supports("avx512f")) {
        return {&avx512::apply_and_sum, &avx512::scale_and_moments, "avx512"};
    }
    if (__builtin_cpu_supports("avx2")) {
        return {&avx2::apply_and_sum, &avx2::scale_and_moments, "avx2"};
    }
#endif
    return kGeneric;
}

const Dispatch& active() {
    static const Dispatch dispatch = resolve();
    return dispatch;
}

// relaxed is enough: tests flip this from the same thread that next touches
// a grid, and workers inherit whatever was set before a batched round was
// submitted.
std::atomic<bool> g_force_generic{false};

const Dispatch& selected() {
    return g_force_generic.load(std::memory_order_relaxed) ? kGeneric : active();
}

}  // namespace

double apply_and_sum(const ApplyPlan& plan, const RadialKernel& kernel) {
    return selected().apply(plan, kernel);
}

Moments scale_and_moments(const ScalePlan& plan) { return selected().scale(plan); }

const char* active_isa() { return active().isa; }

void set_force_generic(bool on) { g_force_generic.store(on, std::memory_order_relaxed); }

}  // namespace cocoa::core::gridk
