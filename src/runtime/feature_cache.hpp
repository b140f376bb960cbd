// Static feature cache: device-resident copies of hot vertices' features.
//
// PaGraph-style degree-ordered caching (§VI-E2 discusses why this helps
// and where it stops helping): the top-`capacity` vertices by degree are
// pinned in device memory; a mini-batch load serves those rows from the
// device copy and fetches the rest from host DRAM over PCIe.  HyScale-GNN
// itself does not need this (it streams everything through the prefetch
// pipeline), but the module lets the repository measure REAL hit rates
// from its own sampler — which is what the PaGraph comparison's miss
// traffic is all about — and quantifies the skew assumption behind the
// baseline's analytic hit-rate model.
//
// FRESHNESS: the cache is built over a MutableFeatureStore and copies
// its pinned rows from it.  The store is updated in place under
// streaming serving, so the pinned device rows CAN go stale.
// invalidate() is the refresh hook: StreamingGraph::update_feature calls
// it after every row write, and the since_invalidate() counters report
// hit traffic accumulated after the most recent refresh — the "is
// anyone reading stale rows" signal.  Deletions go further:
// StreamingGraph::remove_vertex calls evict() so a retracted entity's
// pinned row stops hitting entirely instead of being refreshed — the
// cache must never serve features for deleted vertices.
//
// ADMISSION DRIFT: the initial admission set is the base graph's degree
// order, but under streaming churn the live hot set walks away from it —
// folds rewrite degrees, TTL sweeps and deletions evict pinned rows, and
// the freed slots used to leak (never re-admitted).  rerank_by_traffic()
// is the correction: every request bumps a per-vertex access counter,
// and the hot set is recomputed from
// those observed counters plus live degrees — at each fold's REBASE
// (StreamingGraph) and on the serving tier's traffic cadence (every
// backend) — evicting pinned rows that fell out of the set and
// re-admitting into every free slot.  Access counters halve at each
// rerank so the next window's traffic dominates the next decision.
//
// TRANSFER PRECISION: the store fixes it.  The cache keeps its pinned
// rows packed in the store's record layout ([scale | int8 × cols] at
// kInt8, cols floats at kFp32) and fills them by copying the store's
// record bytes — it never quantizes anything itself.  A hit and a miss
// therefore decode identical bytes, so hit/miss composition never
// changes logits at a given precision, and an int8 hit moves cols + 4
// bytes instead of 4*cols.  The packed copy is kept because reading hot
// rows from one dense plane is cheaper than reading them scattered
// through the full table: a cache that tracked membership only and read
// hits from the store ran perfbench's churn-int8 at 32.54 against 30.87
// cpu_us_per_seed (higher in 8 of 10 pairs) and churn-sharded at 37.03
// against 35.36, for 8 MB less RSS on static-read — the 1.7 MB int8
// copy of 16,384 hot rows fits a 2 MB L2, the 6.8 MB store does not
// (ROADMAP, "Do not retry blind").
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "stream/feature_store.hpp"
#include "tensor/tensor.hpp"

namespace hyscale {

class StaticFeatureCache {
 public:
  /// Pins the `capacity_rows` highest-degree vertices of `graph`,
  /// copying their records from `store` (whose base rows must be
  /// graph's vertices; throws std::invalid_argument otherwise or for a
  /// negative capacity).  `store` must outlive the cache.
  StaticFeatureCache(const CsrGraph& graph, const MutableFeatureStore& store,
                     std::int64_t capacity_rows);

  struct LoadStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    double device_bytes = 0.0;  ///< served from the cache (wire bytes at precision())
    double host_bytes = 0.0;    ///< fetched from host (the PCIe traffic)

    double hit_rate() const {
      const std::int64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// The serving gather: pinned rows among `nodes` from the device
  /// copy, the rest from the store, into `out` ([nodes.size(), cols]),
  /// attributing each row to cache or host in totals().  Two locked
  /// passes (device rows, then store rows), not a lock per row.  Ids the
  /// cache cannot track (streamed-in extension rows) always miss.  Safe
  /// for concurrent callers (serving workers share one cache); each
  /// caller passes its own `out` and `hit_scratch` (the per-row hit
  /// bitmap, resized in place).
  LoadStats gather(std::span<const VertexId> nodes, Tensor& out,
                   std::vector<char>& hit_scratch);

  /// Refreshes the device copies of the pinned vertices among `ids` from
  /// the store and resets the since_invalidate() window.  Returns the
  /// number of rows refreshed; calls that refresh nothing (no pinned
  /// vertex among `ids`) leave the window and counters untouched.
  std::int64_t invalidate(std::span<const VertexId> ids);

  /// Unpins `ids` entirely: the device copies are zeroed and the
  /// vertices stop hitting, so a deleted entity can never be served
  /// from a stale pinned row.  Returns the number of rows evicted.
  /// Freed slots are re-admitted by the next rerank().
  std::int64_t evict(std::span<const VertexId> ids);

  /// Re-ranks the admission set against `hot` (best first): pinned
  /// vertices still in the set keep their slots (no copy — their device
  /// rows stay fresh via invalidate()), pinned vertices that fell out
  /// are evicted, and the freed slots — including slots evict() freed
  /// earlier — are re-admitted from the front of `hot`, copying the
  /// store's records.  Out-of-range ids and duplicates in `hot` are
  /// skipped; at most capacity() ids are considered.  Access counters
  /// halve afterwards so the next window's traffic dominates the next
  /// rerank.  Returns the number of rows admitted.
  std::int64_t rerank(std::span<const VertexId> hot);

  /// The one hot-set ranking every serving mode uses: the trackable
  /// vertices below graph.num_vertices() that `excluded` does not
  /// reject, ordered by observed traffic (access_count), then degree in
  /// `graph` (the cold-start tiebreak: PaGraph's policy), then id — a
  /// total, deterministic order over one snapshot of the counters —
  /// and rerank() onto the first capacity() of them.  `excluded` is how
  /// streaming keeps dead vertices from ever re-entering the cache.
  /// No-op (returns 0, counts no rerank) at capacity 0.
  std::int64_t rerank_by_traffic(const CsrGraph& graph,
                                 const std::function<bool(VertexId)>& excluded = {});

  /// Membership check, safe against concurrent evict()/invalidate()/
  /// rerank(): reads the slot table under the rows lock (shared).
  bool cached(VertexId v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= slot_of_.size()) return false;
    std::shared_lock rows(rows_mutex_);
    return slot_of_[static_cast<std::size_t>(v)] >= 0;
  }
  std::int64_t capacity() const { return capacity_; }
  TransferPrecision precision() const { return store_.precision(); }
  /// Vertices the cache can pin and count: the store's base rows
  /// (streamed-in extension rows are never admitted).
  std::int64_t trackable_rows() const { return static_cast<std::int64_t>(slot_of_.size()); }

  /// Requests observed for v (hits AND misses) since the last rerank
  /// decay — the admission signal.  Relaxed read.
  std::uint64_t access_count(VertexId v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= slot_of_.size()) return 0;
    return access_[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
  }

  /// Cumulative statistics across all gather() calls (consistent snapshot).
  LoadStats totals() const {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return totals_;
  }

  /// Traffic since the most recent invalidate() — the post-invalidation
  /// hit-rate counter (equals totals() before the first invalidation).
  LoadStats since_invalidate() const {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return since_invalidate_;
  }

  std::int64_t invalidations() const {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return invalidations_;
  }
  std::int64_t invalidated_rows() const {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return invalidated_rows_;
  }
  std::int64_t evictions() const {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return evictions_;
  }
  std::int64_t reranks() const {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return reranks_;
  }
  std::int64_t readmitted_rows() const {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return readmitted_rows_;
  }
  std::int64_t rerank_evicted_rows() const {
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return rerank_evicted_rows_;
  }

 private:
  void account(const LoadStats& stats);
  std::byte* slot_record(std::int64_t slot) {
    return device_rows_.data() + static_cast<std::size_t>(slot) * store_.record_bytes();
  }
  const std::byte* slot_record(std::int64_t slot) const {
    return device_rows_.data() + static_cast<std::size_t>(slot) * store_.record_bytes();
  }
  /// Decodes the pinned rows among `nodes` into out and sets hit[i] for
  /// each, under ONE shared rows lock.  Returns the rows served.
  std::int64_t copy_cached_rows(std::span<const VertexId> nodes, std::vector<char>& hit,
                                Tensor& out) const;
  /// (Re)fills slot with v's store record.  Caller holds rows_mutex_
  /// exclusively.
  void fill_slot_unlocked(std::int64_t slot, VertexId v) {
    store_.copy_record(v, slot_record(slot));
  }
  /// Zeroes slot's record, which decodes to a zero row in either
  /// format.  Caller holds rows_mutex_ exclusively.
  void zero_slot_unlocked(std::int64_t slot) {
    std::fill_n(slot_record(slot), store_.record_bytes(), std::byte{0});
  }
  void bump_access(VertexId v) const {
    access_[static_cast<std::size_t>(v)].fetch_add(1, std::memory_order_relaxed);
  }

  const MutableFeatureStore& store_;
  std::vector<std::int64_t> slot_of_;  ///< vertex -> device row, -1 when not pinned
  std::vector<VertexId> pinned_;       ///< device row -> vertex, -1 when free
  /// [capacity] packed copies of the pinned rows, in the store's record
  /// layout (record_bytes() each).
  std::vector<std::byte> device_rows_;
  std::int64_t capacity_ = 0;
  /// Per-vertex request counters (admission signal).  Relaxed atomics
  /// bumped under the shared rows lock.
  std::unique_ptr<std::atomic<std::uint64_t>[]> access_;
  mutable std::shared_mutex rows_mutex_;  ///< device rows + slot tables
  mutable std::mutex totals_mutex_;
  LoadStats totals_;
  LoadStats since_invalidate_;
  std::int64_t invalidations_ = 0;
  std::int64_t invalidated_rows_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t reranks_ = 0;
  std::int64_t readmitted_rows_ = 0;
  std::int64_t rerank_evicted_rows_ = 0;
};

}  // namespace hyscale
