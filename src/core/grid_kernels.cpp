// Baseline instantiation of the blocked grid kernels + runtime dispatch.
//
// This TU is compiled with the project's default ISA flags, so the vector-
// extension code lowers to SSE2 on x86-64 and NEON on aarch64 — that is the
// "generic" path, and the arithmetic every other instantiation must match
// byte-for-byte (see grid_kernels_impl.hpp). The AVX2/AVX-512 instantiations
// live in their own TUs with per-file -m flags and are only referenced when
// CMake defines COCOA_GRIDK_X86_DISPATCH (COCOA_SIMD=ON on an x86-64 host);
// the dispatcher then picks the widest ISA the CPU reports at first use, and
// force_isa lets the bitwise tests run every other one.

#define COCOA_GRIDK_ISA_NS baseline
#include "core/grid_kernels_impl.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

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
#if defined(COCOA_GRIDK_X86_DISPATCH)
constexpr Dispatch kAvx2{&avx2::apply_and_sum, &avx2::scale_and_moments, "avx2"};
constexpr Dispatch kAvx512{&avx512::apply_and_sum, &avx512::scale_and_moments, "avx512"};
#endif

/// Every instantiation the CPU runs, widest last.
std::vector<const Dispatch*> runnable() {
    std::vector<const Dispatch*> out{&kGeneric};
#if defined(COCOA_GRIDK_X86_DISPATCH)
    if (__builtin_cpu_supports("avx2")) out.push_back(&kAvx2);
    if (__builtin_cpu_supports("avx512f")) out.push_back(&kAvx512);
#endif
    return out;
}

const Dispatch& active() {
    static const Dispatch* const dispatch = runnable().back();
    return *dispatch;
}

// relaxed is enough: tests force an ISA from the same thread that next
// touches a grid, and workers inherit whatever was set before a batched
// round was submitted.
std::atomic<const Dispatch*> g_forced{nullptr};

const Dispatch& selected() {
    const Dispatch* forced = g_forced.load(std::memory_order_relaxed);
    return forced != nullptr ? *forced : active();
}

}  // namespace

double apply_and_sum(const ApplyPlan& plan, const RadialKernel& kernel) {
    return selected().apply(plan, kernel);
}

Moments scale_and_moments(const ScalePlan& plan) { return selected().scale(plan); }

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
    throw std::invalid_argument(std::string("gridk::force_isa: '") + isa +
                                "' is not an instantiation this build and CPU run");
}

}  // namespace cocoa::core::gridk
