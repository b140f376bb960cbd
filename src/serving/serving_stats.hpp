// Serving-side observability: request latency and queue-wait
// percentiles, throughput and micro-batch shape distribution.
//
// One ServingStats instance is shared by every InferenceWorker of a
// server.  Each completion lands in two Histograms (latency and queue
// wait) with lock-free observes — the one record of it, which the
// server also exports as serving.latency_ms / serving.queue_wait_ms.
// Batch shapes and rejections are guarded by a mutex.  snapshot()
// returns a copy with the derived quantities (p50/p95/p99, QPS) already
// computed, which is what the CLI, the load generator and the serving
// bench all print.  Feature-cache traffic is the cache's own count
// (StaticFeatureCache::totals); InferenceServer::stats() adds it.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "common/timer.hpp"
#include "obs/metrics.hpp"

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
  /// Percentiles over every completion, at histogram bucket resolution
  /// (~15% buckets, interpolated; see Histogram).
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

  /// The serving cache's traffic (zero without a cache); filled by
  /// InferenceServer::stats().
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
  void record_completion(Seconds latency, Seconds queue_wait = 0.0) {
    latency_.observe_seconds(latency);
    queue_wait_.observe_seconds(queue_wait);
  }
  void record_rejection();
  void record_batch(std::int64_t requests, std::int64_t seeds);

  ServingSnapshot snapshot() const;

  const Histogram& latency() const { return latency_; }
  const Histogram& queue_wait() const { return queue_wait_; }

 private:
  Timer uptime_;
  Histogram latency_;
  Histogram queue_wait_;
  mutable std::mutex mutex_;  ///< guards the batch and rejection counts
  std::int64_t rejected_ = 0;
  std::int64_t batches_ = 0;
  std::int64_t batch_requests_sum_ = 0;
  std::int64_t batch_seeds_sum_ = 0;
  std::int64_t min_batch_requests_ = 0;
  std::int64_t max_batch_requests_ = 0;
};

}  // namespace hyscale
