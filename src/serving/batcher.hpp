// Request queue + dynamic micro-batcher for online inference.
//
// Callers submit seed-vertex requests; InferenceWorkers pull coalesced
// micro-batches.  The batching policy is the classic serving trade-off:
// wait for more requests (bigger batches amortise sampling/gather/GEMM
// fixed costs) versus dispatch now (bound tail latency).  A micro-batch
// closes when EITHER
//   * it holds `max_batch_requests` requests,
//   * its seed total reaches `max_batch_seeds`, or
//   * the OLDEST queued request has waited `max_wait` seconds
// — whichever comes first.  The queue itself is bounded: submit() fails
// fast when `queue_capacity` requests are pending, giving callers
// backpressure instead of unbounded latency collapse under overload.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "common/timer.hpp"
#include "graph/csr.hpp"
#include "tensor/tensor.hpp"

namespace hyscale {

/// What a caller gets back for one request.
struct InferenceResult {
  Tensor logits;                 ///< [request seeds, num_classes]
  std::vector<int> predictions;  ///< argmax class per seed
  Seconds latency = 0.0;         ///< enqueue -> result ready
  Seconds queue_wait = 0.0;      ///< enqueue -> worker pickup share of latency
  std::uint64_t request_id = 0;  ///< id assigned at submit; keys trace lookup
  std::uint64_t batch_id = 0;    ///< micro-batch that served this request
  std::int64_t batch_requests = 0;  ///< requests coalesced into that batch
  std::int64_t batch_seeds = 0;     ///< seeds across the batch
};

/// A queued unit of work.  Movable only (owns the result promise).
struct InferenceRequest {
  std::uint64_t id = 0;
  std::vector<VertexId> seeds;
  std::chrono::steady_clock::time_point enqueue_time;
  std::promise<InferenceResult> promise;
};

struct BatchPolicy {
  std::int64_t max_batch_requests = 16;
  std::int64_t max_batch_seeds = 512;
  Seconds max_wait = 2e-3;          ///< deadline from the oldest request's enqueue
  std::size_t queue_capacity = 1024;  ///< pending requests before rejection
};

class DynamicBatcher {
 public:
  explicit DynamicBatcher(BatchPolicy policy);

  /// Enqueues a request; returns false (request untouched apart from the
  /// move) when the queue is at capacity or the batcher is shut down.
  bool submit(InferenceRequest&& request);

  /// Blocks until a micro-batch is ready under the policy; fills `out`
  /// (cleared first) and returns true.  Returns false only after
  /// shutdown() AND the queue has drained, so no accepted request is
  /// ever dropped.
  bool next_batch(std::vector<InferenceRequest>& out);

  /// Wakes all waiting workers; queued requests are still handed out.
  void shutdown();

  std::size_t depth() const;
  /// High-water mark of depth() since construction.
  std::size_t peak_depth() const;
  const BatchPolicy& policy() const { return policy_; }

 private:
  BatchPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<InferenceRequest> queue_;
  std::int64_t queued_seeds_ = 0;  ///< running sum over queue_ (O(1) dispatch check)
  std::size_t peak_depth_ = 0;
  bool stopped_ = false;
};

}  // namespace hyscale
