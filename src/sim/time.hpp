#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>

namespace cocoa::sim {

/// A span of virtual time, stored as signed 64-bit nanoseconds.
///
/// Integer nanoseconds keep event ordering exact and runs bit-deterministic;
/// 64 bits cover ~292 years, far beyond any simulation here.
class Duration {
  public:
    constexpr Duration() = default;

    static constexpr Duration nanos(std::int64_t ns) { return Duration{ns}; }
    static constexpr Duration micros(std::int64_t us) { return Duration{us * 1'000}; }
    static constexpr Duration millis(std::int64_t ms) { return Duration{ms * 1'000'000}; }
    static constexpr Duration seconds(double s) {
        return Duration{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
    }
    static constexpr Duration minutes(double m) { return seconds(m * 60.0); }
    /// True when seconds(s) is defined: |s| within ~291 years, so s * 1e9
    /// fits the int64 nanosecond count. False for NaN and infinities.
    static constexpr bool fits_seconds(double s) { return s >= -9.2e9 && s <= 9.2e9; }
    static constexpr Duration zero() { return Duration{0}; }
    static constexpr Duration max() { return Duration{INT64_MAX}; }

    constexpr std::int64_t to_nanos() const { return ns_; }
    constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
    constexpr double to_millis() const { return static_cast<double>(ns_) * 1e-6; }

    constexpr bool is_zero() const { return ns_ == 0; }
    constexpr bool is_negative() const { return ns_ < 0; }

    constexpr Duration operator+(Duration o) const { return Duration{ns_ + o.ns_}; }
    constexpr Duration operator-(Duration o) const { return Duration{ns_ - o.ns_}; }
    constexpr Duration operator*(double s) const { return seconds(to_seconds() * s); }
    constexpr Duration operator*(std::int64_t k) const { return Duration{ns_ * k}; }
    constexpr Duration operator/(std::int64_t k) const { return Duration{ns_ / k}; }
    constexpr double operator/(Duration o) const {
        return static_cast<double>(ns_) / static_cast<double>(o.ns_);
    }
    Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
    Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

    constexpr auto operator<=>(const Duration&) const = default;

  private:
    constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
    std::int64_t ns_ = 0;
};

/// An instant of virtual time (nanoseconds since simulation start).
class TimePoint {
  public:
    constexpr TimePoint() = default;

    static constexpr TimePoint origin() { return TimePoint{}; }
    static constexpr TimePoint from_nanos(std::int64_t ns) { return TimePoint{ns}; }
    static constexpr TimePoint from_seconds(double s) {
        return TimePoint{Duration::seconds(s).to_nanos()};
    }
    static constexpr TimePoint max() { return TimePoint{INT64_MAX}; }

    constexpr std::int64_t to_nanos() const { return ns_; }
    constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }

    constexpr TimePoint operator+(Duration d) const { return TimePoint{ns_ + d.to_nanos()}; }
    constexpr TimePoint operator-(Duration d) const { return TimePoint{ns_ - d.to_nanos()}; }
    constexpr Duration operator-(TimePoint o) const { return Duration::nanos(ns_ - o.ns_); }
    TimePoint& operator+=(Duration d) { ns_ += d.to_nanos(); return *this; }

    constexpr auto operator<=>(const TimePoint&) const = default;

  private:
    constexpr explicit TimePoint(std::int64_t ns) : ns_(ns) {}
    std::int64_t ns_ = 0;
};

std::ostream& operator<<(std::ostream& os, Duration d);
std::ostream& operator<<(std::ostream& os, TimePoint t);

}  // namespace cocoa::sim
