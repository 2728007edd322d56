#include "sim/isa.hpp"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>

namespace cocoa::sim::isa {

namespace {

/// Every compiled instantiation, in the order of the kernels' entry tables.
constexpr const char* kCompiled[] = {
    "generic",
#if defined(COCOA_X86_DISPATCH)
    "avx2",
    "avx512",
#endif
};

/// Whether the CPU runs compiled instantiation i. The AVX-512 TUs are built
/// with -mavx512dq too, for the fanout settle pass's 64-bit multiply.
bool cpu_runs(std::size_t i) {
#if defined(COCOA_X86_DISPATCH)
    if (i == 1) return __builtin_cpu_supports("avx2");
    if (i == 2) return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#endif
    return i == 0;
}

std::size_t widest() {
    static const std::size_t index = [] {
        std::size_t w = 0;
        for (std::size_t i = 0; i < std::size(kCompiled); ++i) {
            if (cpu_runs(i)) w = i;
        }
        return w;
    }();
    return index;
}

constexpr std::size_t kDispatched = SIZE_MAX;

// relaxed is enough: tests force an ISA from the same thread that next drives
// a kernel, and workers inherit whatever was set before a batched round was
// submitted.
std::atomic<std::size_t> g_forced{kDispatched};

}  // namespace

std::vector<const char*> runnable() {
    std::vector<const char*> names;
    for (std::size_t i = 0; i < std::size(kCompiled); ++i) {
        if (cpu_runs(i)) names.push_back(kCompiled[i]);
    }
    return names;
}

const char* active() { return kCompiled[widest()]; }

std::size_t selected() {
    const std::size_t forced = g_forced.load(std::memory_order_relaxed);
    return forced != kDispatched ? forced : widest();
}

void force(const char* name) {
    if (name == nullptr) {
        g_forced.store(kDispatched, std::memory_order_relaxed);
        return;
    }
    for (std::size_t i = 0; i < std::size(kCompiled); ++i) {
        if (cpu_runs(i) && std::strcmp(kCompiled[i], name) == 0) {
            g_forced.store(i, std::memory_order_relaxed);
            return;
        }
    }
    throw std::invalid_argument(std::string("sim::isa::force: '") + name +
                                "' is not an instantiation this build and CPU run");
}

}  // namespace cocoa::sim::isa
