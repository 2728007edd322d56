#include "metrics/time_series.hpp"

#include <algorithm>
#include <stdexcept>


namespace cocoa::metrics {

void TimeSeries::push(sim::TimePoint t, double value) {
    if (!samples_.empty() && t < samples_.back().time) {
        throw std::invalid_argument("TimeSeries::push: samples must be time-ordered");
    }
    samples_.push_back({t, value});
    stats_.add(value);
}

double TimeSeries::value_at(sim::TimePoint t, double fallback) const {
    // First sample strictly after t, then step back one.
    const auto it = std::upper_bound(
        samples_.begin(), samples_.end(), t,
        [](sim::TimePoint lhs, const Sample& s) { return lhs < s.time; });
    if (it == samples_.begin()) return fallback;
    return std::prev(it)->value;
}

TimeSeries TimeSeries::downsample(sim::Duration bucket) const {
    if (bucket <= sim::Duration::zero()) {
        throw std::invalid_argument("TimeSeries::downsample: bucket must be positive");
    }
    TimeSeries out;
    std::size_t i = 0;
    while (i < samples_.size()) {
        const auto bucket_index = samples_[i].time.to_nanos() / bucket.to_nanos();
        const auto bucket_end =
            sim::TimePoint::from_nanos((bucket_index + 1) * bucket.to_nanos());
        RunningStat acc;
        sim::TimePoint last = samples_[i].time;
        while (i < samples_.size() && samples_[i].time < bucket_end) {
            acc.add(samples_[i].value);
            last = samples_[i].time;
            ++i;
        }
        out.push(last, acc.mean());
    }
    return out;
}

double TimeSeries::mean_in(sim::TimePoint from, sim::TimePoint to) const {
    RunningStat acc;
    for (const Sample& s : samples_) {
        if (s.time >= from && s.time < to) acc.add(s.value);
    }
    return acc.mean();
}

}  // namespace cocoa::metrics
