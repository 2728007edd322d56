#include "core/kernel_cache.hpp"

#include <bit>
#include <cmath>

namespace cocoa::core {

const RadialKernel& KernelCache::get(const phy::DistancePdf& pdf, double floor_fraction) {
    const Key key{std::bit_cast<std::uint64_t>(pdf.mean_m),
                  std::bit_cast<std::uint64_t>(pdf.sigma_m),
                  std::bit_cast<std::uint64_t>(floor_fraction)};
    // Floor relative to the constraint's own peak, so the relative damping of
    // off-ring cells is scale-free.
    const double peak = 1.0 / (pdf.sigma_m * std::sqrt(2.0 * 3.14159265358979323846));
    const std::lock_guard<std::mutex> lock(mutex_);
    return kernels_.try_emplace(key, pdf.mean_m, pdf.sigma_m, floor_fraction * peak)
        .first->second;
}

std::size_t KernelCache::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return kernels_.size();
}

}  // namespace cocoa::core
