// Wall-clock timing utilities.
//
// Real time is used for the micro-benchmarks and for the measured CPU
// stage times; the heterogeneous devices report *simulated* time through
// hyscale::SimTime (see device/sim_device.hpp), so both share the
// `Seconds` vocabulary type defined here.
#pragma once

#include <chrono>
#include <cstdint>

namespace hyscale {

using Seconds = double;

/// Steady-clock nanoseconds: the one timeline the journal, trips,
/// heartbeats, request exemplars and feature-store touch stamps share.
inline std::int64_t steady_ns(
    std::chrono::steady_clock::time_point tp = std::chrono::steady_clock::now()) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count();
}

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed wall time in seconds since construction or last reset().
  Seconds elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates time across multiple start/stop intervals (per pipeline
/// stage, per epoch).
class Accumulator {
 public:
  void start() { timer_.reset(); running_ = true; }
  void stop() {
    if (running_) {
      total_ += timer_.elapsed();
      ++count_;
      running_ = false;
    }
  }
  void add(Seconds s) { total_ += s; ++count_; }
  Seconds total() const { return total_; }
  Seconds mean() const { return count_ ? total_ / static_cast<double>(count_) : 0.0; }
  long count() const { return count_; }
  void reset() { total_ = 0.0; count_ = 0; running_ = false; }

 private:
  Timer timer_;
  Seconds total_ = 0.0;
  long count_ = 0;
  bool running_ = false;
};

}  // namespace hyscale
