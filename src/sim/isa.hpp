#pragma once

#include <cstddef>
#include <vector>

/// The SIMD layer under the blocked kernels (core/grid_kernels and
/// mac/fanout_kernels): the lane count both lay their data out in, and the
/// one runtime choice of which compiled instantiation they run.
///
/// Each kernel is compiled once per ISA, into its own namespace: `baseline`
/// with the project's default flags (SSE2 on x86-64, NEON on aarch64; named
/// "generic"), and, when CMake defines COCOA_X86_DISPATCH (COCOA_SIMD=ON on
/// an x86-64 host), `avx2` with -mavx2 and `avx512` with -mavx512f
/// -mavx512dq. A kernel's baseline TU holds a table of its entry points in
/// that order and calls the entry at selected(). Every instantiation
/// computes the same bits (each kernel's *_impl.hpp states how), so the
/// choice changes only the speed.
namespace cocoa::sim::isa {

/// Lane count of every blocked layout. Fixed across ISAs (it defines the
/// kernels' reduction trees and evaluation order, not the hardware vector
/// width), so it must not change with the instantiation.
inline constexpr std::size_t kBlock = 8;

/// n rounded up to whole blocks: the stride blocked rows and batches pad to.
constexpr std::size_t padded(std::size_t n) {
    return (n + kBlock - 1) / kBlock * kBlock;
}

/// Every instantiation this build compiled and this CPU runs, "generic"
/// first and the widest last. "avx512" needs both avx512f and avx512dq.
std::vector<const char*> runnable();

/// The instantiation the kernels dispatch to: the last of runnable(), chosen
/// at first use. force() does not change it.
const char* active();

/// The entry-table index of the instantiation the kernels run now, in
/// compile order (generic, avx2, avx512): the forced one, else active()'s.
std::size_t selected();

/// Test hook: while set, both kernels run the named instantiation (one of
/// runnable()) instead of the dispatched one; nullptr restores the dispatch.
/// Throws std::invalid_argument for any other name. Results stay
/// byte-identical; that is the contract the bitwise kernel tests pin.
void force(const char* name);

}  // namespace cocoa::sim::isa
