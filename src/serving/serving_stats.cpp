#include "serving/serving_stats.hpp"

#include <algorithm>

#include "common/strutil.hpp"

namespace hyscale {

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

ServingSnapshot ServingStats::snapshot() const {
  const HistogramView latency = latency_.view();
  const HistogramView queue_wait = queue_wait_.view();
  ServingSnapshot s;
  s.completed_requests = latency.count;
  s.latency_mean = latency.mean_ms() / 1e3;
  s.latency_p50 = latency.percentile_ms(0.50) / 1e3;
  s.latency_p95 = latency.percentile_ms(0.95) / 1e3;
  s.latency_p99 = latency.percentile_ms(0.99) / 1e3;
  s.latency_max = latency.max_ms / 1e3;
  s.queue_wait_mean = queue_wait.mean_ms() / 1e3;
  s.queue_wait_p50 = queue_wait.percentile_ms(0.50) / 1e3;
  s.queue_wait_p95 = queue_wait.percentile_ms(0.95) / 1e3;
  s.queue_wait_p99 = queue_wait.percentile_ms(0.99) / 1e3;
  s.queue_wait_max = queue_wait.max_ms / 1e3;
  s.compute_mean = s.latency_mean - s.queue_wait_mean;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.rejected_requests = rejected_;
    s.completed_batches = batches_;
    s.total_seeds = batch_seeds_sum_;
    s.batch_requests_total = batch_requests_sum_;
    s.min_batch_requests = min_batch_requests_;
    s.max_batch_requests = max_batch_requests_;
  }
  s.uptime = uptime_.elapsed();
  if (s.completed_batches > 0) {
    s.mean_batch_requests = static_cast<double>(s.batch_requests_total) /
                            static_cast<double>(s.completed_batches);
    s.mean_batch_seeds =
        static_cast<double>(s.total_seeds) / static_cast<double>(s.completed_batches);
  }
  if (s.uptime > 0.0) {
    s.qps = static_cast<double>(s.completed_requests) / s.uptime;
    s.seeds_per_second = static_cast<double>(s.total_seeds) / s.uptime;
  }
  return s;
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
