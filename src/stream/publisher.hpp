// SLO-driven background publisher.
//
// publish() is cheap but caller-paced: with the generator's fixed
// publish-every-N cadence, staleness is unbounded the moment the caller
// stalls (or rejects every op and never reaches N).  The Publisher
// closes that loop: a background thread watches the age of the oldest
// accepted-but-unpublished op (StreamingGraph::pending_staleness) and
// publishes a new version before that age exceeds a staleness budget —
// "no accepted op waits more than `staleness_budget` to become
// visible".  When nothing is pending it idles; it never publishes
// empty versions, so a quiet graph stays on its current version.
//
// The scheduler halves the remaining slack between checks (down to
// min(200 µs, budget/2)), so each publish cycle costs O(log(budget/floor))
// wakeups instead of a busy poll, and a burst arriving mid-sleep is
// still caught with slack to spare.  Because the op only becomes
// visible when publish() RETURNS — and the loop only regains control
// when the scheduler actually wakes it — the publisher starts each
// publish early by a margin covering BOTH terms it cannot avoid
// paying: the worst recent publish cost and the observed wakeup
// lateness on this host (decaying high-waters, clamped to 80% of the
// budget).  Staleness is accounted the same way: `worst_staleness()`
// and `breaches()` are sampled at publish COMPLETION (pending age at
// start + publish cost), so a slow publish that blows the budget is a
// breach, not an invisible under-report.  The budget is still a soft
// real-time target (publishes serialize with the compactor's short
// cut/rebase endpoints, never with its off-lock O(base) build;
// test_stream_lifecycle's Publisher.MakesIngestVisibleWhileAFoldIsParked
// holds that last property), so callers read the measured bound from
// worst_staleness() instead of assuming it.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/timer.hpp"
#include "stream/streaming_graph.hpp"

namespace hyscale {

struct PublisherPolicy {
  /// No accepted op should wait longer than this to become visible to
  /// queries.  <= 0 disables the background publisher (caller-paced
  /// publishing only) — HyScale::stream skips construction entirely.
  Seconds staleness_budget = 5e-3;
};

class Publisher {
 public:
  /// `graph` must outlive the publisher.  The background thread starts
  /// immediately and stops (joined) on destruction or stop().
  explicit Publisher(StreamingGraph& graph, PublisherPolicy policy = {});
  ~Publisher();

  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void stop() { thread_.stop(); }

  std::int64_t publishes() const { return publishes_.load(std::memory_order_relaxed); }
  /// Worst visibility staleness measured at publish COMPLETION: the
  /// pending-op age when the publish started plus the publish cost —
  /// how long the oldest op actually waited to become queryable.
  Seconds worst_staleness() const { return staleness_.max_ms() / 1e3; }
  /// Publishes whose completion-time staleness exceeded the budget
  /// (scheduling overrun or a publish slower than its margin allowed).
  std::int64_t breaches() const { return breaches_.load(std::memory_order_relaxed); }
  /// Slowest publish() this publisher has issued — the cost term of the
  /// staleness bound (worst_staleness <= start age + this), exported so
  /// a breach can be attributed: slow publishes vs late starts.
  Seconds worst_publish_cost() const;
  const PublisherPolicy& policy() const { return policy_; }

 private:
  void loop();

  StreamingGraph& graph_;
  PublisherPolicy policy_;
  // Telemetry handles from graph_.telemetry(); null when telemetry off.
  EventJournal* journal_ = nullptr;
  Telemetry* telemetry_ = nullptr;  ///< trip channel; publisher.* detach here
  std::atomic<std::int64_t> publishes_{0};
  std::atomic<std::int64_t> breaches_{0};
  Histogram staleness_;  ///< completion-time visible staleness, per publish
  mutable std::mutex stats_mutex_;
  Seconds worst_publish_cost_ = 0.0;
  LifecycleThread thread_;  ///< keep last: starts in the constructor's tail
};

}  // namespace hyscale
