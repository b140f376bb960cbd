#include "shard/cut_adopter.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace hyscale {

CutAdopter::CutAdopter(ShardedStreamingGraph& graph, CutAdopterPolicy policy)
    : graph_(graph), policy_(policy) {
  if (policy_.poll_interval <= 0.0)
    throw std::invalid_argument("CutAdopter: poll_interval must be positive");
  if (Telemetry* telemetry = graph_.telemetry(); telemetry != nullptr) {
    // Busy time is one adopt (a version-vector snapshot);
    // the poll interval is the natural beat hint.
    heart_ = &telemetry->heartbeats().register_thread(
        "sharded.adopter",
        std::max<std::int64_t>(static_cast<std::int64_t>(policy_.poll_interval * 1e9),
                               1'000'000));
  }
  thread_ = std::thread([this] { loop(); });
}

CutAdopter::~CutAdopter() { stop(); }

void CutAdopter::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CutAdopter::loop() {
  std::unique_lock lock(mutex_);
  while (!stop_) {
    if (heart_ != nullptr) heart_->idle_enter();
    cv_.wait_for(lock, std::chrono::duration<double>(policy_.poll_interval),
                 [this] { return stop_; });
    if (heart_ != nullptr) heart_->idle_exit();
    if (stop_) break;
    if (!graph_.cut_stale()) continue;
    lock.unlock();
    const auto before = graph_.current_cut();
    const auto after = graph_.adopt();
    // adopt() returns the unchanged cut when a racing caller (a test's
    // publish_all) already advanced past what we saw; only count cuts
    // this thread actually installed.
    if (after != before) adoptions_.fetch_add(1, std::memory_order_relaxed);
    if (heart_ != nullptr) heart_->beat();
    lock.lock();
  }
  if (heart_ != nullptr) heart_->retire();
}

}  // namespace hyscale
