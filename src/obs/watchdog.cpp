#include "obs/watchdog.hpp"

#include <algorithm>
#include <chrono>

#include "obs/telemetry.hpp"

namespace hyscale {
namespace {

constexpr double kStallMultiplier = 8.0;  ///< threshold = multiplier x interval_hint

}  // namespace

void Heartbeat::beat() {
  last_beat_ns_.store(steady_ns());
  beats_.fetch_add(1, std::memory_order_relaxed);
}

void Heartbeat::idle_enter() {
  last_beat_ns_.store(steady_ns());
  idle_.store(true);
}

void Heartbeat::idle_exit() {
  beat();
  idle_.store(false);
}

Heartbeat& HeartbeatRegistry::register_thread(std::string name,
                                              std::int64_t interval_hint_ns) {
  std::lock_guard lock(mutex_);
  return hearts_.emplace_back(std::move(name), interval_hint_ns);
}

std::vector<HeartbeatRegistry::View> HeartbeatRegistry::views() const {
  std::lock_guard lock(mutex_);
  std::vector<View> out;
  out.reserve(hearts_.size());
  for (const Heartbeat& h : hearts_) {
    out.push_back(View{h.name(), h.last_beat_ns(), h.interval_hint_ns(), h.beats(),
                       h.idle(), h.retired()});
  }
  return out;
}

std::size_t HeartbeatRegistry::size() const {
  std::lock_guard lock(mutex_);
  return hearts_.size();
}

void LifecycleThread::start(Heartbeat* heart, std::function<void()> body) {
  heart_ = heart;
  thread_ = std::thread([this, body = std::move(body)] {
    body();
    if (heart_ != nullptr) heart_->retire();
  });
}

bool LifecycleThread::sleep(Seconds duration) {
  std::unique_lock lock(mutex_);
  if (stop_) return false;
  if (heart_ != nullptr) heart_->idle_enter();
  cv_.wait_for(lock, std::chrono::duration<double>(duration), [this] { return stop_; });
  if (heart_ != nullptr) heart_->idle_exit();
  return !stop_;
}

bool LifecycleThread::stopping() const {
  std::lock_guard lock(mutex_);
  return stop_;
}

void LifecycleThread::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Watchdog::Watchdog(Telemetry& telemetry, WatchdogConfig config)
    : telemetry_(telemetry), config_(config) {
  register_count(telemetry_.registry(), "watchdog.stalls", this, stalls_);
  try {
    thread_.start(nullptr, [this] {
      while (thread_.sleep(static_cast<double>(config_.check_interval_ns) * 1e-9)) sweep();
    });
  } catch (...) {
    // No destructor runs: drop the callback over this half-built object.
    telemetry_.registry().detach(this);
    throw;
  }
}

Watchdog::~Watchdog() {
  stop();
  telemetry_.registry().detach(this);
}

void Watchdog::sweep() {
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t now = steady_ns();
  for (const HeartbeatRegistry::View& h : telemetry_.heartbeats().views()) {
    // Idle hearts are blocked on purpose; a heart that never beat is a
    // thread that has not started its loop yet — neither is a stall.
    if (h.retired || h.idle || h.beats == 0) {
      // A stalled thread that reached its idle wait (or exited) has
      // worked through whatever wedged it — close the episode in the
      // journal rather than dropping it silently.
      if (stalled_.erase(h.name) > 0)
        telemetry_.journal().log("watchdog_recovered", "thread=" + h.name);
      continue;
    }
    const std::int64_t threshold =
        std::max(config_.min_stall_ns,
                 static_cast<std::int64_t>(kStallMultiplier *
                                           static_cast<double>(h.interval_hint_ns)));
    const std::int64_t age = now - h.last_beat_ns;
    if (age <= threshold) {
      if (stalled_.erase(h.name) > 0)
        telemetry_.journal().log("watchdog_recovered", "thread=" + h.name);
      continue;
    }
    // Report once per episode: the set holds currently-stalled names.
    if (!stalled_.insert(h.name).second) continue;
    stalls_.fetch_add(1, std::memory_order_relaxed);
    telemetry_.journal().log(
        "watchdog_stall", "thread=" + h.name +
                              " age_ms=" + std::to_string(static_cast<double>(age) * 1e-6) +
                              " threshold_ms=" +
                              std::to_string(static_cast<double>(threshold) * 1e-6));
    telemetry_.trip("watchdog_stall:" + h.name);
  }
}

}  // namespace hyscale
