// Per-request critical paths + tail exemplars.
//
// A serving worker stamps five stage boundaries per micro-batch on the
// steady_ns() timeline (pickup, sample end, gather end, forward end,
// reply end) and joins them with each request's enqueue stamp into a
// RequestTrace — which stage ate the time between a request's enqueue
// and its reply — so "p99 doubled" has an answer in milliseconds per
// stage, not just a number.
//
// The ExemplarRing retains the full trace of the slowest N requests
// seen so far.  Admission is by latency threshold: once the ring is
// full, the threshold is the total latency of the fastest retained
// exemplar, read with one relaxed atomic load on the offer fast path —
// requests below it never take the lock, so the hot path pays one
// load + one compare per request in the common case.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace hyscale {

/// One stage's slice of a request's critical path.  `present` is false
/// until the worker has stamped the stage.
struct StageSpanView {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  bool present = false;

  double ms() const { return present ? static_cast<double>(end_ns - begin_ns) * 1e-6 : 0.0; }
};

/// A request's end-to-end critical path.  Queue is
/// per-request (enqueue -> pickup); sample/gather/forward/reply are the
/// serving micro-batch's stages — the request waited on all of them, so
/// they ARE its critical path (attribution, not exclusive blame).
struct RequestTrace {
  std::uint64_t request_id = 0;
  std::uint64_t batch_id = 0;
  std::int64_t enqueue_ns = 0;
  std::int64_t done_ns = 0;  ///< end of the batch's reply span

  StageSpanView queue;
  StageSpanView sample;
  StageSpanView gather;
  StageSpanView forward;
  StageSpanView reply;

  std::int64_t batch_requests = 0;  ///< requests coalesced into the batch
  std::int64_t batch_seeds = 0;     ///< seeds across the batch

  /// All five stages stamped.
  bool complete() const {
    return queue.present && sample.present && gather.present && forward.present &&
           reply.present;
  }
  /// Enqueue -> reply-done wall time.
  double total_ms() const { return static_cast<double>(done_ns - enqueue_ns) * 1e-6; }
  std::int64_t total_ns() const { return done_ns - enqueue_ns; }
};

/// Fixed-size ring of the slowest requests' full traces.  offer() is
/// called once per completed request from the serving workers; readers
/// (flight recorder, tests) take the lock.
class ExemplarRing {
 public:
  explicit ExemplarRing(std::size_t capacity = 16) : capacity_(capacity) {}

  /// Admits `trace` when the ring has room or the trace is slower than
  /// the fastest retained exemplar (which it evicts).  Returns true on
  /// admission.
  bool offer(const RequestTrace& trace);

  /// Retained exemplars, slowest first.
  std::vector<RequestTrace> slowest() const;

  std::size_t capacity() const { return capacity_; }
  std::int64_t offered() const { return offered_.load(std::memory_order_relaxed); }
  std::int64_t admitted() const { return admitted_.load(std::memory_order_relaxed); }
  /// Current admission threshold in ns (0 until the ring fills).
  std::int64_t threshold_ns() const { return threshold_ns_.load(std::memory_order_relaxed); }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<RequestTrace> traces_;
  std::atomic<std::int64_t> threshold_ns_{0};
  std::atomic<std::int64_t> offered_{0};
  std::atomic<std::int64_t> admitted_{0};
};

}  // namespace hyscale
