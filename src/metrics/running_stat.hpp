#pragma once

#include <cstddef>
#include <limits>

namespace cocoa::metrics {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// Numerically stable; O(1) memory regardless of sample count.
class RunningStat {
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    bool empty() const { return n_ == 0; }

    /// Mean of all samples; 0 when empty.
    double mean() const { return n_ ? mean_ : 0.0; }
    /// Unbiased sample variance. With fewer than two samples the estimator
    /// is undefined; this returns 0 (never NaN) so "±" columns and CI maths
    /// stay printable — pinned by tests/exp_test.cpp.
    double variance() const;
    /// sqrt(variance()); 0 (never NaN) with fewer than two samples.
    double stddev() const;
    /// Smallest sample; +inf when empty.
    double min() const { return min_; }
    /// Largest sample; -inf when empty.
    double max() const { return max_; }
    double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

    /// Merges another accumulator into this one (parallel Welford merge).
    void merge(const RunningStat& other);

    void reset() { *this = RunningStat{}; }

    /// Checkpoint walk (sim/checkpoint.hpp): the Welford state and extrema
    /// verbatim.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& s) {
        ar(s.n_, s.mean_, s.m2_, s.min_, s.max_);
    }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/// Half-width of the two-sided 95% confidence interval on the mean:
/// t_{0.975, n-1} * stddev / sqrt(n), using the Student-t quantile for
/// n <= 31 samples and the normal 1.96 beyond. 0 with fewer than two
/// samples (a single replication has no interval).
double ci95_halfwidth(const RunningStat& s);

}  // namespace cocoa::metrics
