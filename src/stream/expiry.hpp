// TTL eviction for streamed-in entities.
//
// Deletions reclaim rows and ids (PR 3), but nothing EXPIRES entities
// on its own: fraud/recommendation entities age out of the feed and
// should be retired automatically.  The ExpirySweeper is a background
// thread that periodically runs its target's sweep_expired — retiring
// (remove_vertex) streamed-in vertices whose feature row has not been
// touched (appended/updated/reused, per
// MutableFeatureStore::last_touch_ns) for longer than the TTL.  The
// target is any ExpiryTarget: a flat StreamingGraph, the
// ShardedStreamingGraph facade (whose pass retires facade-wide, keeping
// the shards' vertex spaces in lockstep), or a ServingBackend
// forwarding to whichever it serves.
//
// A retirement is a tombstone burst (every live incident edge is
// retracted), so an unpaced sweep over a large idle population would
// stampede the compactor into back-to-back rebuilds.  Two pacing knobs
// prevent that: `max_retire_per_sweep` caps the burst per pass, and
// `pending_op_budget` stops a pass early once the overlay already
// holds that many ops — the sweep yields to the compactor/annihilator
// and picks the survivors up next interval.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/timer.hpp"
#include "stream/expiry_target.hpp"

namespace hyscale {

class Heartbeat;

struct ExpiryPolicy {
  static constexpr EdgeId kDeriveFromCompaction = -1;

  /// Idle budget: a streamed-in vertex untouched for longer than this
  /// is retired.  < 0 disables TTL eviction (HyScale::stream skips
  /// the sweeper); 0 expires everything idle at sweep time (tests).
  Seconds ttl = -1.0;
  Seconds sweep_interval = 10e-3;
  /// Tombstone-burst pacing: retirements per sweep pass.
  std::int64_t max_retire_per_sweep = 64;
  /// Stop a pass once the overlay holds this many pending ops, so a
  /// sweep never pushes the compaction trigger into a rebuild storm.
  /// 0 = no op-budget pacing; kDeriveFromCompaction lets
  /// HyScale::stream substitute half the compaction threshold.
  EdgeId pending_op_budget = kDeriveFromCompaction;

  bool enabled() const { return ttl >= 0.0; }
};

class ExpirySweeper {
 public:
  /// `target` must outlive the sweeper.  Requires policy.enabled(); the
  /// background thread starts immediately and stops (joined) on
  /// destruction or stop().
  explicit ExpirySweeper(ExpiryTarget& target, ExpiryPolicy policy);
  ~ExpirySweeper();

  ExpirySweeper(const ExpirySweeper&) = delete;
  ExpirySweeper& operator=(const ExpirySweeper&) = delete;

  void stop();

  std::int64_t sweeps() const { return sweeps_.load(std::memory_order_relaxed); }
  std::int64_t retired() const { return retired_.load(std::memory_order_relaxed); }
  const ExpiryPolicy& policy() const { return policy_; }

 private:
  void loop();

  ExpiryTarget& target_;
  ExpiryPolicy policy_;
  Heartbeat* heart_ = nullptr;  ///< liveness stamp when telemetry on
  std::atomic<std::int64_t> sweeps_{0};
  std::atomic<std::int64_t> retired_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  ///< keep last: starts in the constructor's tail
};

}  // namespace hyscale
