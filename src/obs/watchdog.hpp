// Liveness watchdog: heartbeat registry + missed-beat stall detection.
//
// Every background thread (serving workers, Compactor, Publisher,
// ExpirySweeper, TelemetryExporter, load-generator clients) registers a
// Heartbeat and stamps it on every unit of work.  Threads that block
// legitimately — a worker parked on an empty queue, a publisher asleep
// between deadlines — bracket the blocking section with idle_enter() /
// idle_exit(), so the watchdog only judges hearts that claim to be
// BUSY.  A busy heart whose last beat is older than its stall
// threshold is a wedged thread: a fold parked mid-BUILD, a publish
// stuck on the rebase endpoint, a worker deadlocked in gather.
//
// False-positive calibration: a heart is flagged only when
//   age > max(min_stall, 8 x interval_hint)
// where interval_hint is the longest gap the thread expects between
// beats while busy.  With the defaults (250 ms floor, 8x multiplier)
// the bound is at least an order of magnitude above the worst
// scheduler wakeup lateness observed on a 1-core host (~10+ ms tails
// under sustained churn with ~15 runnable threads), so a healthy run
// never trips — asserted over a multi-second session in
// test_diagnosis.  Detection latency for a real stall is threshold +
// one check interval.
//
// On a stall transition the watchdog bumps its stall count (exported
// as `watchdog.stalls` from construction on), journals a `watchdog_stall` event, and calls
// Telemetry::trip() — which the FlightRecorder turns into a post-mortem
// dump.  Recovery (the heart beats again) is journaled too, and the
// same heart can trip again on a later episode.
//
// LifecycleThread is the one loop primitive every background component
// (Compactor, Publisher, ExpirySweeper, CutAdopter, Watchdog,
// TelemetryExporter) runs on: it owns the thread, the stop request, the
// interruptible sleep (which brackets the wait with idle_enter /
// idle_exit) and the heart's retirement when the loop returns — one
// mutex/condition-variable handshake, written once.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/timer.hpp"

namespace hyscale {

class Telemetry;

/// One background thread's liveness stamp.  All stores are seq_cst so
/// the watchdog can never observe busy + a pre-block beat: idle_exit()
/// beats BEFORE clearing the idle flag.
class Heartbeat {
 public:
  void beat();
  /// About to block legitimately (queue wait, timed sleep).
  void idle_enter();
  /// Back from the block; beats first so a sampling watchdog sees
  /// either idle or a fresh stamp, never busy + stale.
  void idle_exit();
  /// Thread exiting for good; the watchdog skips retired hearts.
  void retire() { retired_.store(true); }

  const std::string& name() const { return name_; }
  std::int64_t last_beat_ns() const { return last_beat_ns_.load(); }
  std::int64_t interval_hint_ns() const { return interval_hint_ns_; }
  std::int64_t beats() const { return beats_.load(std::memory_order_relaxed); }
  bool idle() const { return idle_.load(); }
  bool retired() const { return retired_.load(); }

  /// Construct through HeartbeatRegistry::register_thread (public only
  /// because deque::emplace_back cannot reach a private constructor).
  Heartbeat(std::string name, std::int64_t interval_hint_ns)
      : name_(std::move(name)), interval_hint_ns_(interval_hint_ns) {}
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

 private:
  std::string name_;
  std::int64_t interval_hint_ns_;
  std::atomic<std::int64_t> last_beat_ns_{0};
  std::atomic<std::int64_t> beats_{0};
  std::atomic<bool> idle_{false};
  std::atomic<bool> retired_{false};
};

class HeartbeatRegistry {
 public:
  /// Registers a heart; the reference stays valid for the registry's
  /// lifetime (hearts live in a deque and are never removed — a dead
  /// thread retires its heart instead).  `interval_hint_ns` is the
  /// longest beat-to-beat gap the thread expects while busy.
  Heartbeat& register_thread(std::string name, std::int64_t interval_hint_ns);

  struct View {
    std::string name;
    std::int64_t last_beat_ns = 0;
    std::int64_t interval_hint_ns = 0;
    std::int64_t beats = 0;
    bool idle = false;
    bool retired = false;
  };
  std::vector<View> views() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::deque<Heartbeat> hearts_;
};

/// One background loop's thread.  The owner calls start() as the last
/// step of its constructor; the body loops on sleep(), which returns
/// false once stop() was requested, and beats between units of work.
/// When the body returns the heart is retired, so a stopped loop never
/// reads as a stalled one.  Declare it as the owner's LAST member: it
/// is then destroyed (stopped and joined) before anything its body
/// touches.
class LifecycleThread {
 public:
  LifecycleThread() = default;
  ~LifecycleThread() { stop(); }

  LifecycleThread(const LifecycleThread&) = delete;
  LifecycleThread& operator=(const LifecycleThread&) = delete;

  /// Runs `body` on a new thread.  `heart` is null when telemetry is
  /// off; sleep() and beat() then only wait and do nothing.
  void start(Heartbeat* heart, std::function<void()> body);
  /// Waits `duration` or until stop(), with the heart idle meanwhile.
  /// Returns false — at once, without waiting, if stop() came first —
  /// once stop() was requested.
  bool sleep(Seconds duration);
  /// Whether stop() was requested (for a loop that re-checks its work
  /// without sleeping).
  bool stopping() const;
  void beat() {
    if (heart_ != nullptr) heart_->beat();
  }
  /// Requests the stop, wakes the body and joins it.  Idempotent: only
  /// the first call joins.
  void stop();

 private:
  Heartbeat* heart_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct WatchdogConfig {
  std::int64_t check_interval_ns = 20'000'000;  ///< 20 ms between sweeps
  std::int64_t min_stall_ns = 250'000'000;  ///< 250 ms floor under the threshold
};

class Watchdog {
 public:
  /// `telemetry` must outlive the watchdog; the thread starts
  /// immediately and sweeps telemetry.heartbeats() every
  /// check_interval.
  explicit Watchdog(Telemetry& telemetry, WatchdogConfig config = {});
  /// Stops the thread, then freezes `watchdog.stalls`.
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void stop() { thread_.stop(); }
  /// Stall episodes detected so far (transitions into stalled, not
  /// sweeps spent stalled).
  std::int64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }
  std::int64_t sweeps() const { return sweeps_.load(std::memory_order_relaxed); }

 private:
  void sweep();

  Telemetry& telemetry_;
  WatchdogConfig config_;
  std::atomic<std::int64_t> stalls_{0};
  std::atomic<std::int64_t> sweeps_{0};
  std::unordered_set<std::string> stalled_;  ///< loop-thread only
  LifecycleThread thread_;                   ///< keep last
};

}  // namespace hyscale
