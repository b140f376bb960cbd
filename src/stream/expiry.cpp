#include "stream/expiry.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace hyscale {

ExpirySweeper::ExpirySweeper(StreamingGraph& graph, ExpiryPolicy policy)
    : graph_(graph), policy_(policy) {
  if (!policy_.enabled())
    throw std::invalid_argument("ExpirySweeper: ttl must be >= 0 (policy disabled)");
  if (policy_.sweep_interval <= 0.0)
    throw std::invalid_argument("ExpirySweeper: sweep_interval must be positive");
  if (policy_.max_retire_per_sweep <= 0)
    throw std::invalid_argument("ExpirySweeper: max_retire_per_sweep must be positive");
  Heartbeat* heart = nullptr;  // liveness stamp when telemetry on
  if (Telemetry* telemetry = graph_.telemetry(); telemetry != nullptr) {
    MetricsRegistry& reg = telemetry->registry();
    register_count(reg, "expiry.sweeps", this, sweeps_);
    register_count(reg, "expiry.retired", this, retired_);
    heart = &telemetry->heartbeats().register_thread(
        "stream.expiry_sweeper",
        std::max<std::int64_t>(static_cast<std::int64_t>(policy_.sweep_interval * 1e9),
                               1'000'000));
  }
  try {
    thread_.start(heart, [this] {
      while (thread_.sleep(policy_.sweep_interval)) {
        const std::int64_t swept =
            graph_.sweep_expired(policy_.ttl, policy_.max_retire_per_sweep);
        thread_.beat();
        sweeps_.fetch_add(1, std::memory_order_relaxed);
        retired_.fetch_add(swept, std::memory_order_relaxed);
      }
    });
  } catch (...) {
    // No destructor runs: drop the callbacks over this half-built object.
    if (Telemetry* telemetry = graph_.telemetry(); telemetry != nullptr)
      telemetry->registry().detach(this);
    throw;
  }
}

ExpirySweeper::~ExpirySweeper() {
  stop();
  if (Telemetry* telemetry = graph_.telemetry(); telemetry != nullptr)
    telemetry->registry().detach(this);
}

}  // namespace hyscale
