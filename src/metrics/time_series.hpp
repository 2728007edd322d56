#pragma once

#include <vector>

#include "metrics/running_stat.hpp"
#include "sim/time.hpp"

namespace cocoa::metrics {

/// A sampled time series of (virtual time, value) pairs — e.g. the per-second
/// average localization error the paper plots in Figures 4, 6, 7 and 9(a).
class TimeSeries {
  public:
    struct Sample {
        sim::TimePoint time;
        double value;
    };

    void push(sim::TimePoint t, double value);

    const std::vector<Sample>& samples() const { return samples_; }
    bool empty() const { return samples_.empty(); }
    std::size_t size() const { return samples_.size(); }

    /// Summary statistics over all sample values ("average error over time").
    const RunningStat& stats() const { return stats_; }

    /// Value at or before `t` (step interpolation); `fallback` before the
    /// first sample.
    double value_at(sim::TimePoint t, double fallback = 0.0) const;

    /// Down-samples to at most one sample per `bucket` of time, averaging
    /// values that fall into the same bucket. Used by bench printers to keep
    /// figure tables readable.
    TimeSeries downsample(sim::Duration bucket) const;

    /// Mean of values with time in [from, to).
    double mean_in(sim::TimePoint from, sim::TimePoint to) const;

    /// Checkpoint walk (sim/checkpoint.hpp): samples and summary stats
    /// verbatim.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& s) {
        ar(s.samples_, s.stats_);
    }

  private:
    std::vector<Sample> samples_;
    RunningStat stats_;
};

}  // namespace cocoa::metrics
