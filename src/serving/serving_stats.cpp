#include "serving/serving_stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/strutil.hpp"

namespace hyscale {

namespace {

/// Nearest-rank percentile over an already-sorted sample: the value at
/// rank ceil(q * n), where ranks are 1-BASED — so the rank converts to
/// a 0-based index by subtracting one.  Using the rank as an index
/// directly reads one sample too high (p50 over 4 samples would serve
/// the 3rd-smallest instead of the 2nd); the small-sample regression
/// tests in test_serving.cpp pin the conversion.
Seconds percentile(const std::vector<Seconds>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

void ServingStats::record_completion(Seconds latency, Seconds queue_wait) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++completed_;
  latency_sum_ += latency;
  latency_max_ = std::max(latency_max_, latency);
  queue_wait_sum_ += queue_wait;
  queue_wait_max_ = std::max(queue_wait_max_, queue_wait);
  // Algorithm R: keep the first kLatencyWindow samples, then replace a
  // uniformly drawn slot with probability window/seen.  One draw covers
  // both reservoirs so latency and queue wait stay paired per request.
  ++reservoir_seen_;
  if (latencies_.size() < kLatencyWindow) {
    latencies_.push_back(latency);
    queue_waits_.push_back(queue_wait);
  } else {
    const std::uint64_t j = splitmix64(reservoir_rng_) % reservoir_seen_;
    if (j < kLatencyWindow) {
      latencies_[j] = latency;
      queue_waits_[j] = queue_wait;
    }
  }
}

void ServingStats::record_rejection() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++rejected_;
}

void ServingStats::record_batch(std::int64_t requests, std::int64_t seeds) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++batches_;
  batch_requests_sum_ += requests;
  batch_seeds_sum_ += seeds;
  min_batch_requests_ =
      batches_ == 1 ? requests : std::min(min_batch_requests_, requests);
  max_batch_requests_ = std::max(max_batch_requests_, requests);
}

void ServingStats::record_gather(const StaticFeatureCache::LoadStats& stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  gather_.hits += stats.hits;
  gather_.misses += stats.misses;
  gather_.device_bytes += stats.device_bytes;
  gather_.host_bytes += stats.host_bytes;
}

ServingSnapshot ServingStats::snapshot() const {
  std::vector<Seconds> sorted;
  std::vector<Seconds> sorted_waits;
  ServingSnapshot s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s = totals_locked();
    sorted = latencies_;
    sorted_waits = queue_waits_;
  }
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty()) {
    s.latency_p50 = percentile(sorted, 0.50);
    s.latency_p95 = percentile(sorted, 0.95);
    s.latency_p99 = percentile(sorted, 0.99);
  }
  std::sort(sorted_waits.begin(), sorted_waits.end());
  if (!sorted_waits.empty()) {
    s.queue_wait_p50 = percentile(sorted_waits, 0.50);
    s.queue_wait_p95 = percentile(sorted_waits, 0.95);
    s.queue_wait_p99 = percentile(sorted_waits, 0.99);
  }
  return s;
}

ServingSnapshot ServingStats::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_locked();
}

ServingSnapshot ServingStats::totals_locked() const {
  ServingSnapshot s;
  s.completed_requests = completed_;
  if (completed_ > 0) {
    s.latency_mean = latency_sum_ / static_cast<double>(completed_);
    s.queue_wait_mean = queue_wait_sum_ / static_cast<double>(completed_);
    s.compute_mean = s.latency_mean - s.queue_wait_mean;
  }
  s.latency_max = latency_max_;
  s.queue_wait_max = queue_wait_max_;
  s.rejected_requests = rejected_;
  s.completed_batches = batches_;
  s.total_seeds = batch_seeds_sum_;
  s.batch_requests_total = batch_requests_sum_;
  s.min_batch_requests = min_batch_requests_;
  s.max_batch_requests = max_batch_requests_;
  s.cache_hits = gather_.hits;
  s.cache_misses = gather_.misses;
  s.device_bytes = gather_.device_bytes;
  s.host_bytes = gather_.host_bytes;
  s.cache_hit_rate = gather_.hit_rate();
  s.uptime = uptime_.elapsed();
  if (batches_ > 0) {
    s.mean_batch_requests =
        static_cast<double>(batch_requests_sum_) / static_cast<double>(batches_);
    s.mean_batch_seeds = static_cast<double>(batch_seeds_sum_) / static_cast<double>(batches_);
  }
  if (s.uptime > 0.0) {
    s.qps = static_cast<double>(s.completed_requests) / s.uptime;
    s.seeds_per_second = static_cast<double>(s.total_seeds) / s.uptime;
  }
  return s;
}

void ServingStats::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  latencies_.clear();
  queue_waits_.clear();
  reservoir_seen_ = 0;
  reservoir_rng_ = 0x9e3779b97f4a7c15ULL;
  completed_ = 0;
  latency_sum_ = 0.0;
  latency_max_ = 0.0;
  queue_wait_sum_ = 0.0;
  queue_wait_max_ = 0.0;
  rejected_ = 0;
  batches_ = 0;
  batch_requests_sum_ = 0;
  batch_seeds_sum_ = 0;
  min_batch_requests_ = 0;
  max_batch_requests_ = 0;
  gather_ = {};
  uptime_.reset();
}

std::string ServingSnapshot::to_string() const {
  std::string out;
  out += "requests=" + format_count(static_cast<std::uint64_t>(completed_requests));
  out += " rejected=" + format_count(static_cast<std::uint64_t>(rejected_requests));
  out += " qps=" + format_double(qps, 1);
  out += " p50=" + format_double(latency_p50 * 1e3, 3) + "ms";
  out += " p95=" + format_double(latency_p95 * 1e3, 3) + "ms";
  out += " p99=" + format_double(latency_p99 * 1e3, 3) + "ms";
  out += " queue_p99=" + format_double(queue_wait_p99 * 1e3, 3) + "ms";
  out += " compute_mean=" + format_double(compute_mean * 1e3, 3) + "ms";
  out += " batch=" + format_double(mean_batch_requests, 2);
  out += " hit_rate=" + format_double(cache_hit_rate, 3);
  return out;
}

}  // namespace hyscale
