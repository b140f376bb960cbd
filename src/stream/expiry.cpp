#include "stream/expiry.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/telemetry.hpp"

namespace hyscale {

ExpirySweeper::ExpirySweeper(ExpiryTarget& target, ExpiryPolicy policy)
    : target_(target), policy_(policy) {
  if (!policy_.enabled())
    throw std::invalid_argument("ExpirySweeper: ttl must be >= 0 (policy disabled)");
  if (policy_.sweep_interval <= 0.0)
    throw std::invalid_argument("ExpirySweeper: sweep_interval must be positive");
  if (policy_.max_retire_per_sweep <= 0)
    throw std::invalid_argument("ExpirySweeper: max_retire_per_sweep must be positive");
  if (Telemetry* telemetry = target_.telemetry(); telemetry != nullptr) {
    MetricsRegistry& reg = telemetry->registry();
    register_count(reg, "expiry.sweeps", this, sweeps_);
    register_count(reg, "expiry.retired", this, retired_);
    heart_ = &telemetry->heartbeats().register_thread(
        std::string(target_.expiry_scope()) + ".expiry_sweeper",
        std::max<std::int64_t>(static_cast<std::int64_t>(policy_.sweep_interval * 1e9),
                               1'000'000));
  }
  try {
    thread_ = std::thread([this] { loop(); });
  } catch (...) {
    // No destructor runs: drop the callbacks over this half-built object.
    if (Telemetry* telemetry = target_.telemetry(); telemetry != nullptr)
      telemetry->registry().detach(this);
    throw;
  }
}

ExpirySweeper::~ExpirySweeper() {
  stop();
  if (Telemetry* telemetry = target_.telemetry(); telemetry != nullptr)
    telemetry->registry().detach(this);
}

void ExpirySweeper::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ExpirySweeper::loop() {
  std::unique_lock lock(mutex_);
  while (!stop_) {
    if (heart_ != nullptr) heart_->idle_enter();
    cv_.wait_for(lock, std::chrono::duration<double>(policy_.sweep_interval),
                 [this] { return stop_; });
    if (heart_ != nullptr) heart_->idle_exit();
    if (stop_) break;
    lock.unlock();
    const std::int64_t swept = target_.sweep_expired(policy_.ttl, policy_.max_retire_per_sweep);
    if (heart_ != nullptr) heart_->beat();
    sweeps_.fetch_add(1, std::memory_order_relaxed);
    retired_.fetch_add(swept, std::memory_order_relaxed);
    lock.lock();
  }
}

}  // namespace hyscale
