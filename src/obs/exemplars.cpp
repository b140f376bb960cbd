#include "obs/exemplars.hpp"

#include <algorithm>

namespace hyscale {

bool ExemplarRing::offer(const RequestTrace& trace) {
  if (capacity_ == 0) return false;
  offered_.fetch_add(1, std::memory_order_relaxed);
  // Fast path: the ring is full and this request is faster than the
  // fastest retained exemplar — a stale read of the threshold only
  // costs one spurious lock acquisition, never a wrong rejection of a
  // genuinely slower trace (the threshold is monotone non-decreasing).
  if (trace.total_ns() <= threshold_ns_.load(std::memory_order_relaxed)) return false;
  std::lock_guard lock(mutex_);
  if (traces_.size() < capacity_) {
    traces_.push_back(trace);
  } else {
    auto fastest = std::min_element(
        traces_.begin(), traces_.end(),
        [](const RequestTrace& a, const RequestTrace& b) { return a.total_ns() < b.total_ns(); });
    if (fastest->total_ns() >= trace.total_ns()) return false;
    *fastest = trace;
  }
  if (traces_.size() == capacity_) {
    auto fastest = std::min_element(
        traces_.begin(), traces_.end(),
        [](const RequestTrace& a, const RequestTrace& b) { return a.total_ns() < b.total_ns(); });
    threshold_ns_.store(fastest->total_ns(), std::memory_order_relaxed);
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<RequestTrace> ExemplarRing::slowest() const {
  std::lock_guard lock(mutex_);
  std::vector<RequestTrace> out = traces_;
  std::sort(out.begin(), out.end(), [](const RequestTrace& a, const RequestTrace& b) {
    return a.total_ns() > b.total_ns();
  });
  return out;
}

}  // namespace hyscale
