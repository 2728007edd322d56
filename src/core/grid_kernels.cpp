// Baseline instantiation of the blocked grid kernels + their entry table.
//
// This TU is compiled with the project's default ISA flags, so the vector-
// extension code lowers to SSE2 on x86-64 and NEON on aarch64 — that is the
// "generic" path, and the arithmetic every other instantiation must match
// byte-for-byte (see grid_kernels_impl.hpp). The AVX2/AVX-512 instantiations
// live in their own TUs with per-file -m flags and are only referenced when
// CMake defines COCOA_X86_DISPATCH; sim::isa picks the entry. The table stays
// in this TU so a static link pulls the ISA objects in only after it: at -O0
// they also emit weak copies of shared inline functions (such as
// RadialKernel::eval_q) built for their ISA, and the linker keeps the first
// copy it loads.

#define COCOA_GRIDK_ISA_NS baseline
#include "core/grid_kernels_impl.hpp"

#include "sim/isa.hpp"

namespace cocoa::core::gridk {

#if defined(COCOA_X86_DISPATCH)
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

struct Entry {
    double (*apply)(const ApplyPlan&, const RadialKernel&);
    Moments (*scale)(const ScalePlan&);
};

/// One entry per sim::isa instantiation, in its compile order.
constexpr Entry kEntries[] = {
    {&baseline::apply_and_sum, &baseline::scale_and_moments},
#if defined(COCOA_X86_DISPATCH)
    {&avx2::apply_and_sum, &avx2::scale_and_moments},
    {&avx512::apply_and_sum, &avx512::scale_and_moments},
#endif
};

}  // namespace

double apply_and_sum(const ApplyPlan& plan, const RadialKernel& kernel) {
    return kEntries[sim::isa::selected()].apply(plan, kernel);
}

Moments scale_and_moments(const ScalePlan& plan) {
    return kEntries[sim::isa::selected()].scale(plan);
}

const char* active_isa() { return sim::isa::active(); }

}  // namespace cocoa::core::gridk
