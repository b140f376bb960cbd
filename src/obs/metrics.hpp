// Unified metrics plane: one registry that owns no instruments.  It
// holds snapshot-time callbacks and borrowed histograms, so every
// subsystem reports through a single substrate instead of inventing its
// own stats struct.
//
// Record once.  The component that makes an event or times a latency
// owns the record: an atomic count (exported with register_count, below)
// or a Histogram (register_histogram), the same one its stats() reads.
// It records whether telemetry is on or off; snapshot() only reads.
// A second owner registering a live name takes the slot over; names are
// never summed across owners (per-shard components prefix theirs).
//
// Detach in the destructor.  An owner calls detach(this) in its
// destructor, after its last record lands (threaded: after joining);
// detach reads each callback once more and copies each histogram,
// freezing them, so exporters that outlive the owner see its final
// state.
//
// Design constraints, in order:
//   1. The hot path (per-request, per-publish) must afford a record:
//      Histogram::observe_ms is a binary search into a shared bounds
//      table plus relaxed atomic updates, with no lock and no
//      allocation; a count is one relaxed fetch_add on the owner's
//      atomic.
//   2. Snapshots are deterministic: entries are reported in
//      registration order, and registration order is fixed by wiring
//      (constructors run in a defined order), so two runs of the same
//      binary produce field-for-field comparable snapshots.
//   3. Readers barely touch writers: callbacks read relaxed atomics or
//      hold their owner's lock for a few loads, and histograms are read
//      with relaxed loads; a snapshot is a point-in-time view, not a
//      linearizable one, which is all a periodic exporter or a bench
//      record needs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hyscale {

/// Point-in-time copy of one histogram: what a snapshot exports and
/// what the owning component's stats() read.
struct HistogramView {
  std::string name;  ///< set by the registry; empty in a component's own view
  std::vector<std::int64_t> buckets;  ///< kBuckets + 1 counts
  std::int64_t count = 0;
  double sum_ms = 0.0;
  double max_ms = 0.0;

  double mean_ms() const { return count ? sum_ms / static_cast<double>(count) : 0.0; }
  /// Interpolated percentile estimate (q in [0,1]) from the bucket
  /// cumulative counts; exact max is substituted at the top bucket so
  /// p100 never over-reports.
  double percentile_ms(double q) const;
};

/// Fixed exponential-bucket histogram.  Bucket bounds are identical for
/// every histogram (milliseconds, ~15% growth per bucket from 1 µs to
/// ~60 s), so recording is a binary search into a shared bounds table
/// plus relaxed atomic updates — no allocation, no lock, about 1 KB per
/// histogram however many values it records.
class Histogram {
 public:
  /// Buckets below the table plus one overflow bucket.
  static constexpr std::size_t kBuckets = 128;

  /// Shared bucket upper bounds in milliseconds; bucket i covers
  /// (bounds[i-1], bounds[i]], bucket kBuckets catches the overflow.
  static const std::vector<double>& bucket_bounds_ms();

  void observe_ms(double ms);
  /// Convenience for the Seconds vocabulary used across the repo.
  void observe_seconds(double s) { observe_ms(s * 1e3); }

  double max_ms() const { return max_ms_.load(std::memory_order_relaxed); }
  /// Copies the buckets, sum and max.  The count is the sum of the
  /// copied buckets, so the view is consistent with itself even when an
  /// observe lands mid-copy.
  HistogramView view() const;

 private:
  std::atomic<std::int64_t> buckets_[kBuckets + 1] = {};
  std::atomic<double> sum_ms_{0.0};
  std::atomic<double> max_ms_{0.0};
};

/// Point-in-time copy of every registered value, in registration order.
class MetricsSnapshot {
 public:
  using HistogramView = hyscale::HistogramView;

  /// Scalars (callbacks live, detached ones frozen) in registration
  /// order.
  const std::vector<std::pair<std::string, double>>& scalars() const { return scalars_; }
  const std::vector<HistogramView>& histograms() const { return histograms_; }

  bool has(const std::string& name) const { return index_.count(name) != 0; }
  /// Value of a scalar; throws std::out_of_range on a name that was
  /// never registered — benches want typos loud, not zero.
  double value(const std::string& name) const;
  /// Histogram lookup by name; nullptr when absent.
  const HistogramView* histogram(const std::string& name) const;
  /// percentile_ms shorthand; throws on an unknown histogram.
  double percentile_ms(const std::string& name, double q) const;

 private:
  friend class MetricsRegistry;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<HistogramView> histograms_;
  std::unordered_map<std::string, std::size_t> index_;       ///< into scalars_
  std::unordered_map<std::string, std::size_t> hist_index_;  ///< into histograms_
};

class MetricsRegistry {
 public:
  /// A scalar pulled from `fn` at snapshot time — how a component
  /// exports a value it owns.  `owner` keys detachment: detach(owner)
  /// evaluates each of that owner's callbacks once more and freezes the
  /// result, after which `fn` is never called again.  Components
  /// register in their constructor and detach in their destructor.
  /// Registering a name that already exists takes the slot over,
  /// keeping its snapshot position; registering it as the other kind
  /// (callback vs histogram) throws std::invalid_argument.
  void register_callback(const std::string& name, const void* owner,
                         std::function<double()> fn);
  /// Exports `histogram`, which `owner` keeps and records into, under
  /// `name`; snapshot() copies it.  Same slot and kind rules as
  /// register_callback.  `histogram` must live until owner detaches;
  /// detach copies it once more and exports that frozen copy.
  void register_histogram(const std::string& name, const void* owner,
                          const Histogram& histogram);
  void detach(const void* owner);

  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    const void* owner = nullptr;
    bool is_histogram = false;
    std::function<double()> fn;            ///< callback; empty once detached
    double frozen = 0.0;                   ///< callback value at detach
    const Histogram* histogram = nullptr;  ///< borrowed; null once detached
    HistogramView frozen_view;             ///< histogram copy at detach
  };
  /// The reset slot for `name`, appended when new; throws when it
  /// exists as the other kind.
  Entry& slot(const std::string& name, const void* owner, bool is_histogram);

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  ///< registration order
  std::unordered_map<std::string, std::size_t> by_name_;  ///< into entries_
};

/// Exports a count `owner` keeps in `count` as the callback `name`,
/// read with a relaxed load at snapshot time.  `count` must live until
/// owner detaches.
inline void register_count(MetricsRegistry& registry, const std::string& name,
                           const void* owner, const std::atomic<std::int64_t>& count) {
  registry.register_callback(name, owner, [&count] {
    return static_cast<double>(count.load(std::memory_order_relaxed));
  });
}

}  // namespace hyscale
