#include "metrics/running_stat.hpp"

#include <algorithm>
#include <cmath>


namespace cocoa::metrics {

void RunningStat::add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double RunningStat::variance() const {
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double ci95_halfwidth(const RunningStat& s) {
    if (s.count() < 2) return 0.0;
    // Two-sided 97.5% Student-t quantiles for 1..30 degrees of freedom.
    static constexpr double kT975[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
    const std::size_t df = s.count() - 1;
    const double t = df <= 30 ? kT975[df - 1] : 1.960;
    return t * s.stddev() / std::sqrt(static_cast<double>(s.count()));
}

}  // namespace cocoa::metrics
