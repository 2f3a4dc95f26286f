// Wall-clock timing for the experiment harness (figures 3c/3f report
// running-time series).
#pragma once

#include <chrono>

namespace mc3 {

/// Monotonic wall-clock stopwatch, started on construction.
class Timer {
 public:
  using Clock = std::chrono::steady_clock;

  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double Millis() const { return Seconds() * 1e3; }

  /// The instant of construction or the last Reset().
  Clock::time_point start() const { return start_; }

 private:
  Clock::time_point start_;
};

}  // namespace mc3

