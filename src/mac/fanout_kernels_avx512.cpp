// AVX-512 instantiation of the fanout kernels. Compiled with -mavx512f
// -mavx512dq (per file, from src/mac/CMakeLists.txt) and only ever called
// after the runtime dispatcher has checked __builtin_cpu_supports for both
// "avx512f" and "avx512dq". See fanout_kernels_impl.hpp for the
// byte-identity contract.
#if defined(__x86_64__) || defined(_M_X64)

#define COCOA_FANOUT_ISA_NS avx512
#include "mac/fanout_kernels_impl.hpp"

#endif
