// Unified metrics plane: callback gauges, counters, gauges and
// fixed-bucket histograms behind one registry, so every subsystem
// reports through a single substrate instead of inventing its own stats
// struct.
//
// Count once.  The component that makes an event owns its count (the
// field its stats() reads) and registers a callback gauge over it
// (register_count, below, for an atomic count); snapshot() reads the
// count there, so it exists with telemetry off too.  counter()/gauge()
// are only for values no component holds (the watchdog's stalls,
// end-of-run load.*/ingest.* reports, constants).
// A second owner registering a live name takes the slot over; names are
// never summed across owners (per-shard components prefix theirs).
//
// Detach in the destructor.  An owner calls detach(this) in its
// destructor, after its last count lands (threaded: after joining);
// detach runs each callback once more and freezes the value, so
// exporters that outlive the owner see its final state.
//
// Design constraints, in order:
//   1. The hot path (per-request, per-edge) must afford an increment:
//      counters are sharded across cache-line-padded atomic cells and a
//      thread picks its shard once (thread-local), so concurrent
//      workers never bounce a line.  Mirrors the fixed-layout
//      shared-memory control blocks of the IPS substrate this repo's
//      perf model is calibrated against: all telemetry storage is
//      allocated at registration time, never on the record path.
//   2. Snapshots are deterministic: instruments are reported in
//      registration order, and registration order is fixed by wiring
//      (constructors run in a defined order), so two runs of the same
//      binary produce field-for-field comparable snapshots.
//   3. Readers barely touch writers: snapshot() sums shards with relaxed
//      loads, and callbacks read relaxed atomics or hold their owner's
//      lock for a few loads; it is a point-in-time view, not a
//      linearizable one, which is all a periodic exporter or a bench
//      record needs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hyscale {

/// Monotone event count.  add() is wait-free after the first call on a
/// thread; value() is a relaxed sum across shards.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::int64_t n = 1) {
    shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    std::int64_t total = 0;
    for (const auto& shard : shards_) total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::int64_t> value{0};
  };
  static std::size_t shard_index();
  Shard shards_[kShards];
};

/// Last-writer-wins scalar (queue depth, current version id).  set_max
/// keeps a high-water mark without a lock.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed exponential-bucket histogram.  Bucket bounds are identical for
/// every histogram (milliseconds, ~15% growth per bucket from 1 µs to
/// ~60 s), so recording is a binary search into a shared bounds table
/// plus one relaxed fetch_add — no allocation, no lock, bounded memory.
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

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_ms() const { return sum_ms_.load(std::memory_order_relaxed); }
  double max_ms() const { return max_ms_.load(std::memory_order_relaxed); }
  std::int64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> buckets_[kBuckets + 1] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_ms_{0.0};
  std::atomic<double> max_ms_{0.0};
};

/// Point-in-time copy of every instrument, in registration order.
class MetricsSnapshot {
 public:
  struct HistogramView {
    std::string name;
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

  /// Scalar instruments (counters as exact integers widened to double,
  /// gauges verbatim, detached callbacks frozen) in registration order.
  const std::vector<std::pair<std::string, double>>& scalars() const { return scalars_; }
  const std::vector<HistogramView>& histograms() const { return histograms_; }

  bool has(const std::string& name) const { return index_.count(name) != 0; }
  /// Value of a scalar instrument; throws std::out_of_range on a name
  /// that was never registered — benches want typos loud, not zero.
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
  /// Look up or create an instrument.  References stay valid for the
  /// registry's lifetime (instruments live in deques); callers cache
  /// the reference and never pay the lock again.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// A gauge whose value is pulled from `fn` at snapshot time — how a
  /// component exports a count it owns.  `owner` keys detachment:
  /// detach(owner) evaluates each of that owner's callbacks once more
  /// and freezes the result, after which `fn` is never called again.
  /// Components register in their constructor and detach in their
  /// destructor.  Registering a name that already exists takes the slot
  /// over, keeping its snapshot position.
  void register_callback(const std::string& name, const void* owner,
                         std::function<double()> fn);
  void detach(const void* owner);

  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram, kCallback } kind;
    std::string name;
    std::size_t index;  ///< into the deque/vector for `kind`
  };
  struct Callback {
    const void* owner;
    std::function<double()> fn;  ///< empty once detached
    double frozen = 0.0;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;          ///< registration order
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::deque<Callback> callbacks_;
  std::unordered_map<std::string, std::size_t> by_name_;  ///< into entries_
};

/// Exports a count `owner` keeps in `count` as the callback gauge
/// `name`, read with a relaxed load at snapshot time.  `count` must
/// live until owner detaches.
inline void register_count(MetricsRegistry& registry, const std::string& name,
                           const void* owner, const std::atomic<std::int64_t>& count) {
  registry.register_callback(name, owner, [&count] {
    return static_cast<double>(count.load(std::memory_order_relaxed));
  });
}

}  // namespace hyscale
