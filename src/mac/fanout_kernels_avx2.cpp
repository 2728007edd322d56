// AVX2 instantiation of the fanout kernels. Compiled with -mavx2 (per file,
// by cocoa_simd_kernel in src/CMakeLists.txt) and only ever called after
// sim::isa has found avx2 on the CPU. See fanout_kernels_impl.hpp for the
// byte-identity contract.
#if defined(__x86_64__) || defined(_M_X64)

#define COCOA_FANOUT_ISA_NS avx2
#include "mac/fanout_kernels_impl.hpp"

#endif
