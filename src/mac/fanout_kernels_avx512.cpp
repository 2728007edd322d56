// AVX-512 instantiation of the fanout kernels. Compiled with -mavx512f
// -mavx512dq (per file, by cocoa_simd_kernel in src/CMakeLists.txt) and only
// ever called after sim::isa has found both on the CPU. See
// fanout_kernels_impl.hpp for the byte-identity contract.
#if defined(__x86_64__) || defined(_M_X64)

#define COCOA_FANOUT_ISA_NS avx512
#include "mac/fanout_kernels_impl.hpp"

#endif
