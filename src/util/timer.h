// Monotonic wall-clock stopwatch.
//
// Phase timing (the paper's Fig. 5 taxonomy included) lives in the trace
// spans of util/trace.h; this is the plain clock they and ad-hoc
// measurements read.
#pragma once

#include <chrono>

namespace crkhacc {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace crkhacc
