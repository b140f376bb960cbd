// Serving-side observability: request latency percentiles, throughput,
// micro-batch shape distribution, and feature-cache traffic.
//
// One ServingStats instance is shared by every InferenceWorker of a
// server, so all mutators are guarded; snapshot() returns a consistent
// copy with the derived quantities (p50/p95/p99, QPS, hit rate) already
// computed, which is what the CLI, the load generator and the serving
// bench all print.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "runtime/feature_cache.hpp"

namespace hyscale {

/// Point-in-time view of a server's counters with derived metrics.
struct ServingSnapshot {
  std::int64_t completed_requests = 0;
  std::int64_t rejected_requests = 0;  ///< backpressure: bounded queue was full
  std::int64_t completed_batches = 0;
  std::int64_t total_seeds = 0;

  Seconds uptime = 0.0;
  double qps = 0.0;               ///< completed requests / uptime
  double seeds_per_second = 0.0;

  Seconds latency_mean = 0.0;     ///< enqueue -> result, over ALL completions
  /// Percentiles over a bounded UNIFORM reservoir of all completions
  /// (Vitter's Algorithm R), so memory stays constant on long-lived
  /// servers while the estimate keeps covering the whole run instead of
  /// sliding to the most recent window.
  Seconds latency_p50 = 0.0;
  Seconds latency_p95 = 0.0;
  Seconds latency_p99 = 0.0;
  Seconds latency_max = 0.0;      ///< over all completions

  /// Queue wait (enqueue -> worker pickup) reported separately from
  /// compute (pickup -> result) so streaming-induced stalls — workers
  /// busy against a hot version, compaction pressure — are attributable
  /// to queuing rather than folded into one latency number.
  Seconds queue_wait_mean = 0.0;
  Seconds queue_wait_p50 = 0.0;
  Seconds queue_wait_p95 = 0.0;
  Seconds queue_wait_p99 = 0.0;
  Seconds queue_wait_max = 0.0;
  Seconds compute_mean = 0.0;     ///< latency_mean - queue_wait_mean, per request

  std::int64_t batch_requests_total = 0;  ///< requests summed over micro-batches
  double mean_batch_requests = 0.0;  ///< requests coalesced per micro-batch
  double mean_batch_seeds = 0.0;
  std::int64_t min_batch_requests = 0;
  std::int64_t max_batch_requests = 0;

  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  double device_bytes = 0.0;
  double host_bytes = 0.0;

  std::string to_string() const;
};

class ServingStats {
 public:
  /// `queue_wait` is the enqueue -> worker-pickup share of `latency`.
  void record_completion(Seconds latency, Seconds queue_wait = 0.0);
  void record_rejection();
  void record_batch(std::int64_t requests, std::int64_t seeds);
  void record_gather(const StaticFeatureCache::LoadStats& stats);

  ServingSnapshot snapshot() const;
  /// snapshot() without the reservoir percentiles (left 0): one lock,
  /// no copy or sort — what the server's serving.* callbacks read.
  ServingSnapshot totals() const;
  void reset();

  /// Latency/queue-wait samples retained for percentile estimates.
  /// Retention is a uniform bounded reservoir (Vitter's Algorithm R):
  /// once full, completion number n replaces a random slot with
  /// probability kLatencyWindow/n, so every completion of the run is
  /// equally likely to be in the sample — percentiles stay stable past
  /// the cap instead of tracking whichever window arrived last.  The
  /// latency and queue-wait reservoirs share one accept/slot draw so
  /// the two samples describe the same subset of requests.
  static constexpr std::size_t kLatencyWindow = 1 << 16;

 private:
  mutable std::mutex mutex_;
  Timer uptime_;
  std::vector<Seconds> latencies_;    ///< bounded to kLatencyWindow
  std::vector<Seconds> queue_waits_;  ///< paired with latencies_
  std::uint64_t reservoir_seen_ = 0;  ///< completions offered to the reservoir
  std::uint64_t reservoir_rng_ = 0x9e3779b97f4a7c15ULL;  ///< splitmix64 state
  std::int64_t completed_ = 0;
  Seconds latency_sum_ = 0.0;
  Seconds latency_max_ = 0.0;
  Seconds queue_wait_sum_ = 0.0;
  Seconds queue_wait_max_ = 0.0;
  std::int64_t rejected_ = 0;
  std::int64_t batches_ = 0;
  std::int64_t batch_requests_sum_ = 0;
  std::int64_t batch_seeds_sum_ = 0;
  std::int64_t min_batch_requests_ = 0;
  std::int64_t max_batch_requests_ = 0;
  StaticFeatureCache::LoadStats gather_;

  ServingSnapshot totals_locked() const;
};

}  // namespace hyscale
