// Copyright (c) PCQE contributors.
// Wall-clock stopwatch for the engine's solve timing, benches and tests.
// Solvers never use it: wall clock reaches a solve only through `Deadline`.

#ifndef PCQE_COMMON_STOPWATCH_H_
#define PCQE_COMMON_STOPWATCH_H_

#include <chrono>

namespace pcqe {

/// \brief Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  /// Starts (or restarts) at construction.
  Stopwatch() : start_(Clock::now()) {}

  /// Resets the origin to now.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last `Restart()`.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pcqe

#endif  // PCQE_COMMON_STOPWATCH_H_
