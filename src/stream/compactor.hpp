// Background delta-to-CSR compaction.
//
// Watches a StreamingGraph's overlay and, when its pending op count
// (insertions + tombstones) exceeds a size or base-ratio threshold,
// runs the cheapest maintenance that clears the pressure:
//
//   1. an in-place ANNIHILATION pass (StreamingGraph::annihilate) that
//      erases cancelled insert/tombstone pairs without touching the
//      base — under delete-heavy churn most pending ops reduce to
//      nothing, and a full rebuild whose only effect is truncation is
//      wasted work;
//   2. only if the overlay is still over threshold, a full fold of the
//      delta into a fresh base CSR (StreamingGraph::compact ->
//      graph/builder) with an atomic version swap.
//
// Keeping the overlay small bounds the per-vertex membership scans on
// the ingest path and the merge/skip work on the sampling path, which
// is what keeps p99 query latency flat as updates accumulate; folding
// tombstones also releases deleted streamed-in vertex ids for
// recycling.  When a fold is refused (compact() returns false — e.g.
// the overlay drained between the trigger check and the snapshot) while
// the trigger still reads true, the loop backs off exponentially
// instead of busy-retrying every poll tick.
#pragma once

#include <cstdint>

#include "common/timer.hpp"
#include "stream/streaming_graph.hpp"

namespace hyscale {

struct CompactionPolicy {
  EdgeId max_overlay_edges = 1 << 15;  ///< absolute trigger (insert + tombstone ops)
  double max_overlay_ratio = 0.25;     ///< ops/base edge-count trigger
  Seconds poll_interval = 2e-3;
  /// Extra wait added after a refused fold doubles per failure up to
  /// this cap and resets on the next success or idle tick.
  Seconds max_backoff = 64e-3;
};

class Compactor {
 public:
  /// What the policy asks for right now.
  enum class Maintenance {
    kNone,        ///< overlay under both thresholds, no pending scrubs
    kAnnihilate,  ///< over threshold with tombstones pending — try the in-place pass first
    kFold,        ///< over threshold and nothing cancellable (no tombstones,
                  ///< scrub-driven, or annihilation insufficient)
  };

  /// `graph` must outlive the compactor.  The background thread starts
  /// immediately and stops (joined) on destruction or stop().  With
  /// telemetry on, compactor.* read the counts below at snapshot time
  /// until destruction freezes them.
  explicit Compactor(StreamingGraph& graph, CompactionPolicy policy = {});
  ~Compactor();

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  void stop() { thread_.stop(); }

  /// Whether the policy would trigger right now (also used by tests).
  bool should_compact() const { return decide() != Maintenance::kNone; }

  /// The action the loop would take right now: annihilation is the
  /// first resort whenever tombstones are pending; a fold is demanded
  /// only when there are none — or, inside the loop, when a pass just
  /// ran and the overlay is still over threshold.  While a fold is already
  /// in flight (off-lock build), kFold is never returned: the pending
  /// rebase will clear the pressure, so the loop annihilates (the
  /// store keeps the ops at or below the fold's cut) or waits instead
  /// of stacking refused folds and backoff.
  Maintenance decide() const;

  /// Pure backoff schedule: the extra wait after one more refused fold.
  static Seconds next_backoff(Seconds current, const CompactionPolicy& policy);

  std::int64_t compactions() const { return compactions_.load(std::memory_order_relaxed); }
  /// Triggered maintenance rounds the annihilation pass resolved alone
  /// (no rebuild needed).
  std::int64_t annihilation_passes() const {
    return annihilation_passes_.load(std::memory_order_relaxed);
  }
  /// Folds refused by the graph while the trigger stayed hot (each one
  /// grows the backoff).
  std::int64_t refused_folds() const { return refused_folds_.load(std::memory_order_relaxed); }
  const CompactionPolicy& policy() const { return policy_; }

 private:
  void loop();

  StreamingGraph& graph_;
  CompactionPolicy policy_;
  std::atomic<std::int64_t> compactions_{0};
  std::atomic<std::int64_t> annihilation_passes_{0};
  std::atomic<std::int64_t> refused_folds_{0};
  LifecycleThread thread_;  ///< keep last: starts in the constructor's tail
};

}  // namespace hyscale
