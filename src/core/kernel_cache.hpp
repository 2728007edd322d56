#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "core/radial_kernel.hpp"
#include "phy/pdf_table.hpp"

namespace cocoa::core {

/// Immutable radial kernels shared by every BayesGrid of a scenario.
///
/// A RadialKernel is a pure function of (mean, sigma, floor_fraction), and a
/// PDF table has a few dozen usable bins, so each distinct kernel is built
/// once and then read by every grid — from the event thread or from fix-pool
/// workers alike. Entries are never evicted or mutated after construction:
/// references returned by get() stay valid for the cache's lifetime, and the
/// cache holds at most one kernel per distinct key it was asked for.
class KernelCache {
  public:
    /// The kernel for this PDF at this floor (a fraction of the constraint's
    /// peak density), keyed on the exact bits of the three values. A miss
    /// builds the kernel under the lock; hits only look it up.
    const RadialKernel& get(const phy::DistancePdf& pdf, double floor_fraction);

    /// Number of distinct kernels built so far.
    std::size_t size() const;

  private:
    using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

    mutable std::mutex mutex_;
    std::map<Key, RadialKernel> kernels_;  ///< node-stable: references survive inserts
};

}  // namespace cocoa::core
