#pragma once

// The lane vocabulary of the blocked kernels: GCC/Clang vector extensions
// over sim::isa::kBlock lanes, and the helpers every kernel uses on them.
// Include it only from a kernel's *_impl.hpp, which each ISA's TU compiles
// with its own -m flags.
//
// Everything here has internal linkage (an anonymous namespace) on purpose:
// a 64-byte vector crosses a call in zmm registers under -mavx512f and in
// memory otherwise, so each ISA's TU must keep its own copies. One
// out-of-line helper shared between the objects would break the calling
// convention.

#include <cstdint>
#include <cstring>

#include "sim/isa.hpp"

// Vectors wider than the baseline ISA are passed via memory; benign here
// (everything inlines into the kernels' entry points), but gcc notes the ABI
// difference per function. The note stays off for the rest of the kernel TU.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace cocoa::sim::lanes {
namespace {

using isa::kBlock;

typedef double vd __attribute__((vector_size(kBlock * sizeof(double))));
typedef std::uint64_t vu __attribute__((vector_size(kBlock * sizeof(std::uint64_t))));
/// What a vd compare yields: all-ones lanes where true.
typedef std::int64_t vm __attribute__((vector_size(kBlock * sizeof(std::int64_t))));
typedef std::int32_t vi __attribute__((vector_size(kBlock * sizeof(std::int32_t))));

inline vd load(const double* p) {
    vd v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline void store(double* p, vd v) { std::memcpy(p, &v, sizeof(v)); }

inline vd bcast(double x) { return vd{x, x, x, x, x, x, x, x}; }

inline bool any(vm m) {
    std::int64_t a = m[0];
    for (std::size_t l = 1; l < kBlock; ++l) a |= m[l];
    return a != 0;
}

}  // namespace
}  // namespace cocoa::sim::lanes
