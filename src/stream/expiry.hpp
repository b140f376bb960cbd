// TTL eviction for streamed-in entities.
//
// Deletions reclaim rows and ids (PR 3), but nothing EXPIRES entities
// on its own: fraud/recommendation entities age out of the feed and
// should be retired automatically.  The ExpirySweeper is a background
// thread that periodically runs StreamingGraph::sweep_expired — retiring
// (remove_vertex) streamed-in vertices whose feature row has not been
// touched (appended/updated/reused, per
// MutableFeatureStore::last_touch_ns) for longer than the TTL.
//
// A retirement is a tombstone burst (every live incident edge is
// retracted), so an unpaced sweep over a large idle population would
// stampede the compactor into back-to-back rebuilds.  Two rules pace
// it: `max_retire_per_sweep` caps the burst per pass, and a pass yields
// while a fold is in flight — it stops at the first candidate it
// reaches then and picks the survivors up next interval, after the
// fold's rebase (or abort) has cleared the flag.  Nothing else holds a
// pass back, so idle entities always expire once folding stops.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/timer.hpp"
#include "obs/watchdog.hpp"
#include "stream/streaming_graph.hpp"

namespace hyscale {

struct ExpiryPolicy {
  /// Idle budget: a streamed-in vertex untouched for longer than this
  /// is retired.  < 0 disables TTL eviction (HyScale::stream skips
  /// the sweeper); 0 expires everything idle at sweep time (tests).
  Seconds ttl = -1.0;
  Seconds sweep_interval = 10e-3;
  /// Tombstone-burst pacing: retirements per sweep pass.
  std::int64_t max_retire_per_sweep = 64;

  bool enabled() const { return ttl >= 0.0; }
};

class ExpirySweeper {
 public:
  /// `graph` must outlive the sweeper.  Requires policy.enabled(); the
  /// background thread starts immediately and stops (joined) on
  /// destruction or stop().
  explicit ExpirySweeper(StreamingGraph& graph, ExpiryPolicy policy);
  ~ExpirySweeper();

  ExpirySweeper(const ExpirySweeper&) = delete;
  ExpirySweeper& operator=(const ExpirySweeper&) = delete;

  void stop() { thread_.stop(); }

  std::int64_t sweeps() const { return sweeps_.load(std::memory_order_relaxed); }
  std::int64_t retired() const { return retired_.load(std::memory_order_relaxed); }
  const ExpiryPolicy& policy() const { return policy_; }

 private:
  StreamingGraph& graph_;
  ExpiryPolicy policy_;
  std::atomic<std::int64_t> sweeps_{0};
  std::atomic<std::int64_t> retired_{0};
  LifecycleThread thread_;  ///< keep last: starts in the constructor's tail
};

}  // namespace hyscale
