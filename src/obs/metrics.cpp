#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hyscale {

const std::vector<double>& Histogram::bucket_bounds_ms() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b(kBuckets);
    // 1 µs growing ~15% per bucket; bucket 127 lands near 55 s, which
    // caps anything this stack times (publish costs, request latency).
    double bound = 1e-3;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      b[i] = bound;
      bound *= 1.15;
    }
    return b;
  }();
  return bounds;
}

void Histogram::observe_ms(double ms) {
  if (!(ms >= 0.0)) ms = 0.0;  // NaN / negative guards collapse to zero
  const auto& bounds = bucket_bounds_ms();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), ms);
  const std::size_t idx = static_cast<std::size_t>(it - bounds.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_ms_.load(std::memory_order_relaxed);
  while (!sum_ms_.compare_exchange_weak(cur, cur + ms, std::memory_order_relaxed)) {
  }
  cur = max_ms_.load(std::memory_order_relaxed);
  while (ms > cur &&
         !max_ms_.compare_exchange_weak(cur, ms, std::memory_order_relaxed)) {
  }
}

HistogramView Histogram::view() const {
  HistogramView view;
  view.buckets.resize(kBuckets + 1);
  for (std::size_t i = 0; i <= kBuckets; ++i) {
    view.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    view.count += view.buckets[i];
  }
  view.sum_ms = sum_ms_.load(std::memory_order_relaxed);
  view.max_ms = max_ms_.load(std::memory_order_relaxed);
  return view;
}

double HistogramView::percentile_ms(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target (1-based: rank ceil(q * n), never 0) over the
  // cumulative bucket counts.
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count))));
  const auto& bounds = Histogram::bucket_bounds_ms();
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::int64_t next = cumulative + buckets[i];
    if (rank <= next) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      // The overflow bucket has no table bound and the bucket holding
      // the largest sample need not be full-width: cap the interpolation
      // ceiling by the exact max so p100 never over-reports.
      double upper = i < bounds.size() ? bounds[i] : max_ms;
      if (max_ms > lower && max_ms < upper) upper = max_ms;
      const double frac = static_cast<double>(rank - cumulative) /
                          static_cast<double>(buckets[i]);
      return lower + (upper - lower) * frac;
    }
    cumulative = next;
  }
  return max_ms;
}

double MetricsSnapshot::value(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw std::out_of_range("MetricsSnapshot: no scalar instrument '" + name + "'");
  return scalars_[it->second].second;
}

const HistogramView* MetricsSnapshot::histogram(
    const std::string& name) const {
  const auto it = hist_index_.find(name);
  return it == hist_index_.end() ? nullptr : &histograms_[it->second];
}

double MetricsSnapshot::percentile_ms(const std::string& name, double q) const {
  const HistogramView* view = histogram(name);
  if (view == nullptr)
    throw std::out_of_range("MetricsSnapshot: no histogram '" + name + "'");
  return view->percentile_ms(q);
}

MetricsRegistry::Entry& MetricsRegistry::slot(const std::string& name, const void* owner,
                                               bool is_histogram) {
  const auto [it, added] = by_name_.emplace(name, entries_.size());
  if (!added && entries_[it->second].is_histogram != is_histogram)
    throw std::invalid_argument("MetricsRegistry: '" + name + "' is registered as a " +
                                (is_histogram ? "callback" : "histogram"));
  // Re-registration (a component recreated under the same registry)
  // takes the slot over, keeping the original snapshot position.
  Entry& entry = added ? entries_.emplace_back() : entries_[it->second];
  entry = Entry{};
  entry.name = name;
  entry.owner = owner;
  entry.is_histogram = is_histogram;
  return entry;
}

void MetricsRegistry::register_callback(const std::string& name, const void* owner,
                                        std::function<double()> fn) {
  std::lock_guard lock(mutex_);
  slot(name, owner, /*is_histogram=*/false).fn = std::move(fn);
}

void MetricsRegistry::register_histogram(const std::string& name, const void* owner,
                                         const Histogram& histogram) {
  std::lock_guard lock(mutex_);
  slot(name, owner, /*is_histogram=*/true).histogram = &histogram;
}

void MetricsRegistry::detach(const void* owner) {
  std::lock_guard lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.owner != owner) continue;
    if (entry.fn) {
      entry.frozen = entry.fn();
      entry.fn = nullptr;
    }
    if (entry.histogram != nullptr) {
      entry.frozen_view = entry.histogram->view();
      entry.histogram = nullptr;
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const Entry& entry : entries_) {
    if (entry.is_histogram) {
      HistogramView view = entry.histogram ? entry.histogram->view() : entry.frozen_view;
      view.name = entry.name;
      snap.hist_index_.emplace(entry.name, snap.histograms_.size());
      snap.histograms_.push_back(std::move(view));
    } else {
      snap.index_.emplace(entry.name, snap.scalars_.size());
      snap.scalars_.emplace_back(entry.name, entry.fn ? entry.fn() : entry.frozen);
    }
  }
  return snap;
}

}  // namespace hyscale
