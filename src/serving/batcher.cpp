#include "serving/batcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyscale {

DynamicBatcher::DynamicBatcher(BatchPolicy policy) : policy_(policy) {
  if (policy_.max_batch_requests < 1)
    throw std::invalid_argument("DynamicBatcher: max_batch_requests must be >= 1");
  if (policy_.max_batch_seeds < 1)
    throw std::invalid_argument("DynamicBatcher: max_batch_seeds must be >= 1");
  if (policy_.max_wait < 0.0)
    throw std::invalid_argument("DynamicBatcher: negative max_wait");
  if (policy_.queue_capacity < 1)
    throw std::invalid_argument("DynamicBatcher: queue_capacity must be >= 1");
}

bool DynamicBatcher::submit(InferenceRequest&& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_ || queue_.size() >= policy_.queue_capacity) return false;
    queued_seeds_ += static_cast<std::int64_t>(request.seeds.size());
    queue_.push_back(std::move(request));
    peak_depth_ = std::max(peak_depth_, queue_.size());
  }
  // One new request can complete at most one batch, so one worker
  // suffices; all waiting workers are equivalent consumers.
  cv_.notify_one();
  return true;
}

bool DynamicBatcher::next_batch(std::vector<InferenceRequest>& out) {
  out.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
    if (queue_.empty()) return false;  // stopped and drained

    // A batch is open: it dispatches at the policy limits, at the oldest
    // request's deadline, or immediately on shutdown.
    const auto oldest = queue_.front().enqueue_time;
    const auto deadline =
        oldest + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(policy_.max_wait));
    auto batch_ready = [this] {
      return stopped_ ||
             static_cast<std::int64_t>(queue_.size()) >= policy_.max_batch_requests ||
             queued_seeds_ >= policy_.max_batch_seeds;
    };
    while (!batch_ready() &&
           std::chrono::steady_clock::now() < deadline) {
      cv_.wait_until(lock, deadline);
    }
    // Another worker may have raced us to the batch while we slept.  If
    // the front changed, our deadline belonged to a request that is
    // already gone — recompute from the new front rather than dispatch a
    // fresh arrival with zero coalescing wait.  (Equal enqueue times mean
    // equal deadlines, so a false "unchanged" there is harmless.)
    if (queue_.empty() || queue_.front().enqueue_time != oldest) continue;

    // Close the batch: take requests up to both limits, but always at
    // least one so an oversized request cannot wedge the queue.
    std::int64_t seeds = 0;
    while (!queue_.empty() &&
           static_cast<std::int64_t>(out.size()) < policy_.max_batch_requests) {
      const auto next_seeds = static_cast<std::int64_t>(queue_.front().seeds.size());
      if (!out.empty() && seeds + next_seeds > policy_.max_batch_seeds) break;
      seeds += next_seeds;
      queued_seeds_ -= next_seeds;
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    // Submitters blocked on a full queue are not waited on a cv (submit
    // fails fast), so only workers need waking — for the case where two
    // workers waited on the same deadline and one drained the queue.
    cv_.notify_all();
    return true;
  }
}

void DynamicBatcher::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  cv_.notify_all();
}

std::size_t DynamicBatcher::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t DynamicBatcher::peak_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_depth_;
}

}  // namespace hyscale
