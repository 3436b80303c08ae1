// Strongly-typed virtual time. All latencies/bandwidths in the simulation
// are expressed through Duration and TimePoint so that wall-clock time and
// simulated time can never be mixed by accident.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

#include "common/types.h"

namespace pvfsib {

// A span of simulated time with nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration zero() { return Duration(0); }
  static constexpr Duration ns(i64 v) { return Duration(v); }
  static constexpr Duration us(double v) {
    return Duration(static_cast<i64>(v * 1e3 + 0.5));
  }
  static constexpr Duration ms(double v) {
    return Duration(static_cast<i64>(v * 1e6 + 0.5));
  }
  static constexpr Duration sec(double v) {
    return Duration(static_cast<i64>(v * 1e9 + 0.5));
  }
  static constexpr Duration max() {
    return Duration(std::numeric_limits<i64>::max());
  }

  constexpr i64 as_ns() const { return ns_; }
  constexpr double as_us() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double as_ms() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double as_sec() const { return static_cast<double>(ns_) / 1e9; }

  constexpr Duration operator+(Duration o) const {
    return Duration(ns_ + o.ns_);
  }
  constexpr Duration operator-(Duration o) const {
    return Duration(ns_ - o.ns_);
  }
  constexpr Duration operator*(double f) const {
    return Duration(static_cast<i64>(static_cast<double>(ns_) * f + 0.5));
  }
  constexpr Duration operator*(i64 n) const { return Duration(ns_ * n); }
  constexpr Duration operator*(int n) const {
    return Duration(ns_ * static_cast<i64>(n));
  }
  constexpr Duration operator*(u64 n) const {
    return Duration(ns_ * static_cast<i64>(n));
  }
  constexpr Duration operator/(i64 n) const { return Duration(ns_ / n); }
  constexpr Duration& operator+=(Duration o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    ns_ -= o.ns_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  std::string to_string() const;

 private:
  explicit constexpr Duration(i64 ns) : ns_(ns) {}
  i64 ns_ = 0;
};

constexpr Duration operator*(i64 n, Duration d) { return d * n; }
constexpr Duration operator*(int n, Duration d) { return d * n; }

// An instant on the simulated timeline.
class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint origin() { return TimePoint(0); }
  static constexpr TimePoint from_ns(i64 v) { return TimePoint(v); }

  constexpr i64 as_ns() const { return ns_; }
  constexpr double as_us() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double as_sec() const { return static_cast<double>(ns_) / 1e9; }

  constexpr TimePoint operator+(Duration d) const {
    return TimePoint(ns_ + d.as_ns());
  }
  constexpr TimePoint operator-(Duration d) const {
    return TimePoint(ns_ - d.as_ns());
  }
  constexpr Duration operator-(TimePoint o) const {
    return Duration::ns(ns_ - o.ns_);
  }
  constexpr TimePoint& operator+=(Duration d) {
    ns_ += d.as_ns();
    return *this;
  }
  constexpr auto operator<=>(const TimePoint&) const = default;

 private:
  explicit constexpr TimePoint(i64 ns) : ns_(ns) {}
  i64 ns_ = 0;
};

constexpr TimePoint max(TimePoint a, TimePoint b) { return a < b ? b : a; }
constexpr Duration max(Duration a, Duration b) { return a < b ? b : a; }
constexpr Duration min(Duration a, Duration b) { return a < b ? a : b; }

// Capped exponential backoff: base * mult^steps, clamped to `cap`. The
// product is built one rounded multiply at a time and stops growing once it
// reaches the cap, so every retry path sees the same sequence of delays.
constexpr Duration capped_backoff(Duration base, double mult, Duration cap,
                                  u32 steps) {
  Duration d = base;
  for (u32 i = 0; i < steps && d < cap; ++i) d = d * mult;
  return min(d, cap);
}

// Time to move `bytes` at `mib_per_sec` (MiB/s, the paper's "MB/s").
// Zero or negative bandwidth means "infinitely fast".
inline Duration transfer_time(u64 bytes, double mib_per_sec) {
  if (mib_per_sec <= 0.0) return Duration::zero();
  const double secs =
      static_cast<double>(bytes) / (mib_per_sec * static_cast<double>(kMiB));
  return Duration::sec(secs);
}

// Effective bandwidth in MiB/s for `bytes` moved in `d`.
inline double bandwidth_mib(u64 bytes, Duration d) {
  if (d <= Duration::zero()) return 0.0;
  return static_cast<double>(bytes) / static_cast<double>(kMiB) / d.as_sec();
}

// A value produced by a host-CPU operation together with the virtual time
// the operation consumed. Callers advance their node's clock by `cost`.
template <typename T>
struct Timed {
  T value;
  Duration cost;
};

}  // namespace pvfsib
