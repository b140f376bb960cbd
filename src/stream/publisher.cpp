#include "stream/publisher.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyscale {

Publisher::Publisher(StreamingGraph& graph, PublisherPolicy policy)
    : graph_(graph), policy_(policy) {
  if (policy_.staleness_budget <= 0.0)
    throw std::invalid_argument("Publisher: staleness_budget must be positive");
  Heartbeat* heart = nullptr;  // liveness stamp when telemetry on
  if (Telemetry* telemetry = graph_.telemetry(); telemetry != nullptr) {
    MetricsRegistry& reg = telemetry->registry();
    // Instruments inherit the graph's shard prefix so per-shard
    // publishers sharing one registry stay distinguishable.
    const std::string& prefix = graph_.config().metric_prefix;
    register_count(reg, prefix + "publisher.publishes", this, publishes_);
    register_count(reg, prefix + "publisher.breaches", this, breaches_);
    reg.register_callback(prefix + "publisher.worst_staleness_ms", this,
                          [this] { return worst_staleness() * 1e3; });
    reg.register_callback(prefix + "publisher.worst_publish_cost_ms", this,
                          [this] { return worst_publish_cost() * 1e3; });
    reg.register_histogram(prefix + "publisher.visible_staleness_ms", this, staleness_);
    journal_ = &telemetry->journal();
    telemetry_ = telemetry;
    // Busy time is one publish; the budget is the natural hint (floored
    // so a sub-ms budget does not make the 250 ms stall floor moot).
    heart = &telemetry->heartbeats().register_thread(
        prefix + "stream.publisher",
        std::max<std::int64_t>(static_cast<std::int64_t>(policy_.staleness_budget * 1e9),
                               1'000'000));
  }
  try {
    thread_.start(heart, [this] { loop(); });
  } catch (...) {
    // No destructor runs: drop the callbacks over this half-built object.
    if (telemetry_ != nullptr) telemetry_->registry().detach(this);
    throw;
  }
}

Publisher::~Publisher() {
  stop();
  if (telemetry_ != nullptr) telemetry_->registry().detach(this);
}

Seconds Publisher::worst_publish_cost() const {
  std::lock_guard lock(stats_mutex_);
  return worst_publish_cost_;
}

void Publisher::loop() {
  // Decaying high-waters, loop-thread only.  The op becomes visible
  // when publish() RETURNS and the loop only regains control when the
  // scheduler actually wakes it, so the deadline must be undercut by
  // BOTH terms: the worst recent publish cost and how late wakeups
  // actually fire on this host.  High-waters (decayed 10% per cycle)
  // rather than means: one tardy wakeup predicts the next, and a
  // one-off hiccup fades instead of pinning the publisher at maximum
  // paranoia forever.
  Seconds cost_high = 0.0;
  Seconds wake_late_high = 0.0;
  // Aim to COMPLETE by 3/4 of the budget: the high-waters below model
  // the stalls this loop has SEEN, and the reserved quarter is for the
  // one it hasn't yet — the budget is an upper bound, so finishing
  // early is always correct, it just publishes slightly smaller
  // batches.
  const Seconds deadline = policy_.staleness_budget * 0.75;
  // Scheduling resolution: once the remaining slack is within this,
  // publish rather than sleep again.  Capped at half the budget, so a
  // budget under 400 µs still keeps the floor inside its window.
  const Seconds poll_floor = std::min(2e-4, policy_.staleness_budget / 2.0);
  while (!thread_.stopping()) {
    const Seconds age = graph_.pending_staleness();
    // Start-early margin: aim to START the publish this far before the
    // deadline so it COMPLETES by it.  Clamped to 80% of the deadline —
    // past that the publisher degenerates into publish-per-op without
    // being able to honour the budget anyway.
    const Seconds margin =
        std::min(std::max(poll_floor, cost_high + wake_late_high), deadline * 0.8);
    Seconds wait;
    if (age <= 0.0) {
      // Nothing pending: idle short enough that an op landing right
      // after this check is still detected with the margin to spare.
      wait = std::max(poll_floor, (deadline - margin) * 0.5);
    } else {
      const Seconds slack = deadline - margin - age;
      if (slack <= poll_floor) {
        // The SLO is about VISIBILITY: an op is stale until publish()
        // RETURNS, so staleness is sampled at completion — the age the
        // oldest op had reached when the publish started, plus the
        // publish cost itself.  Recording the pre-publish age instead
        // under-reports by exactly the publish duration and lets a slow
        // publish (e.g. one stalled on the rebase endpoint) blow the
        // budget without ever counting as a breach.
        const Seconds start_age = graph_.pending_staleness();
        Timer cost;
        graph_.publish();
        const Seconds took = cost.elapsed();
        cost_high = std::max(cost_high * 0.9, took);
        {
          std::lock_guard stats(stats_mutex_);
          worst_publish_cost_ = std::max(worst_publish_cost_, took);
        }
        // start_age can read 0 when a caller-paced publish raced us and
        // already made everything visible; nothing waited, so nothing
        // is accounted.
        if (start_age > 0.0) {
          const Seconds visible_age = start_age + took;
          staleness_.observe_seconds(visible_age);
          if (visible_age > policy_.staleness_budget) {
            breaches_.fetch_add(1, std::memory_order_relaxed);
            if (journal_ != nullptr)
              journal_->log("slo_breach",
                            "visible_staleness_ms=" + std::to_string(visible_age * 1e3) +
                                " budget_ms=" +
                                std::to_string(policy_.staleness_budget * 1e3));
            // Escalate: the flight recorder (when installed) captures a
            // post-mortem of the breach while the evidence is fresh.
            if (telemetry_ != nullptr) telemetry_->trip("slo_breach");
          }
        }
        publishes_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Halve the remaining slack each wakeup: O(log) checks per cycle
      // and a fresh burst is still re-sampled with margin to spare.
      wait = std::max(poll_floor, slack * 0.5);
    }
    Timer slept;
    thread_.sleep(wait);
    // How late past the requested wait the wakeup actually fired; a
    // stop() wake can come early, in which case only the decay applies.
    wake_late_high = std::max(wake_late_high * 0.9, slept.elapsed() - wait);
  }
}

}  // namespace hyscale
