#include "stream/delta_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/sanitizer.hpp"

namespace hyscale {

namespace {

/// Walks equal runs of a SORTED op list and invokes fn(neighbor) for
/// every odd-length run — the store's one membership-parity reduction,
/// shared by snapshot() and remove_vertex() so ingest-time liveness and
/// snapshot reduction can never desynchronize.
template <typename Fn>
void for_each_odd_parity_run(const std::vector<VertexId>& sorted, Fn&& fn) {
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    if (((j - i) & 1) != 0) fn(sorted[i]);
    i = j;
  }
}

/// Appends the spans of slots [lo, hi) of one offset-indexed array pair
/// to another, re-basing the offsets.
void append_spans(const std::vector<EdgeId>& offsets, const std::vector<VertexId>& items,
                  std::size_t lo, std::size_t hi, std::vector<EdgeId>& to_offsets,
                  std::vector<VertexId>& to_items) {
  const EdgeId shift = static_cast<EdgeId>(to_items.size()) - offsets[lo];
  for (std::size_t s = lo + 1; s <= hi; ++s) to_offsets.push_back(offsets[s] + shift);
  to_items.insert(to_items.end(), items.begin() + offsets[lo], items.begin() + offsets[hi]);
}

/// Appends slots [lo, hi) of `from` — vertices and both spans — to `to`.
void append_slots(const DeltaStore::Overlay& from, std::size_t lo, std::size_t hi,
                  DeltaStore::Overlay& to) {
  if (lo == hi) return;
  to.touched.insert(to.touched.end(), from.touched.begin() + static_cast<std::ptrdiff_t>(lo),
                    from.touched.begin() + static_cast<std::ptrdiff_t>(hi));
  append_spans(from.insert_offsets, from.inserts, lo, hi, to.insert_offsets, to.inserts);
  append_spans(from.remove_offsets, from.removes, lo, hi, to.remove_offsets, to.removes);
}

}  // namespace

DeltaStore::DeltaStore(std::shared_ptr<const CsrGraph> base, std::size_t num_stripes)
    : base_(std::move(base)),
      stripes_(std::max<std::size_t>(1, num_stripes)),
      overlay_(std::make_shared<const Overlay>()),
      dead_sorted_(std::make_shared<const std::vector<VertexId>>()) {
  if (!base_) throw std::invalid_argument("DeltaStore: null base graph");
  buckets_.resize(static_cast<std::size_t>(base_->num_vertices()));
  dead_since_.resize(static_cast<std::size_t>(base_->num_vertices()), 0);
  reclaim_floor_ = base_->num_vertices();
  num_vertices_.store(base_->num_vertices(), std::memory_order_relaxed);
}

DeltaStore::~DeltaStore() { forget_mutexes({&structure_mutex_}); }

bool DeltaStore::base_contains(VertexId u, VertexId v) const {
  if (u >= base_->num_vertices()) return false;
  // Base adjacency is sorted per vertex (build_csr output; StreamingGraph
  // rejects any other base).
  const auto neighbors = base_->neighbors(u);
  return std::binary_search(neighbors.begin(), neighbors.end(), v);
}

void DeltaStore::mark_dirty(Stripe& stripe, VertexId v, Bucket& bucket) {
  if (bucket.dirty) return;
  bucket.dirty = true;
  stripe.dirty.push_back(v);
}

void DeltaStore::note_append(Stripe& stripe, VertexId v, Bucket& bucket) {
  if (!bucket.listed) {
    bucket.listed = true;
    stripe.touched.push_back(v);
  }
  mark_dirty(stripe, v, bucket);
}

bool DeltaStore::live_unlocked(VertexId u, VertexId v) const {
  // Per-pair ops strictly alternate, so membership is base XOR parity.
  const Bucket& bucket = buckets_[static_cast<std::size_t>(u)];
  std::size_t pending = 0;
  for (VertexId x : bucket.neighbors) pending += (x == v);
  return base_contains(u, v) ^ ((pending & 1) != 0);
}

bool DeltaStore::edge_op_locked(Stripe& stripe, VertexId u, VertexId v, bool remove) {
  Bucket& bucket = buckets_[static_cast<std::size_t>(u)];
  if (live_unlocked(u, v) != remove) return false;
  bucket.neighbors.push_back(v);
  bucket.epochs.push_back(epoch_.load(std::memory_order_relaxed));
  bucket.removes.push_back(remove ? 1 : 0);
  note_append(stripe, u, bucket);
  (remove ? delta_removes_ : delta_inserts_).fetch_add(1, std::memory_order_relaxed);
  return true;
}

void DeltaStore::check_range_unlocked(VertexId u, VertexId v) const {
  const VertexId n = num_vertices_.load(std::memory_order_relaxed);
  if (u < 0 || u >= n || v < 0 || v >= n)
    throw std::invalid_argument("DeltaStore: edge endpoint out of range");
}

int DeltaStore::edge_pair_op(VertexId u, VertexId v, bool remove) {
  if (u == v) return 0;
  const VertexId lo = std::min(u, v);
  const VertexId hi = std::max(u, v);
  std::shared_lock structure(structure_mutex_);
  check_range_unlocked(lo, hi);
  if (!remove && (dead_unlocked(lo) || dead_unlocked(hi))) return 0;
  // Both stripes for the whole pair: a racing opposite-sign pair op on
  // the same {u, v} serialises entirely before or after this one, so
  // the two directions can never diverge.  std::scoped_lock orders the
  // acquisitions deadlock-free.
  Stripe& a = stripe_for(lo);
  Stripe& b = stripe_for(hi);
  if (&a == &b) {
    std::lock_guard lock(a.mutex);
    if (!edge_op_locked(a, lo, hi, remove)) return 0;
    return edge_op_locked(b, hi, lo, remove) ? 2 : 1;
  }
  std::scoped_lock lock(a.mutex, b.mutex);
  if (!edge_op_locked(a, lo, hi, remove)) return 0;
  return edge_op_locked(b, hi, lo, remove) ? 2 : 1;
}

int DeltaStore::add_edge_pair(VertexId u, VertexId v) {
  return edge_pair_op(u, v, /*remove=*/false);
}

int DeltaStore::remove_edge_pair(VertexId u, VertexId v) {
  return edge_pair_op(u, v, /*remove=*/true);
}

VertexId DeltaStore::add_vertices(std::int64_t count) {
  if (count <= 0) throw std::invalid_argument("DeltaStore::add_vertices: count must be positive");
  std::unique_lock structure(structure_mutex_);
  const VertexId first = num_vertices_.load(std::memory_order_relaxed);
  buckets_.resize(buckets_.size() + static_cast<std::size_t>(count));
  dead_since_.resize(dead_since_.size() + static_cast<std::size_t>(count), 0);
  num_vertices_.store(first + count, std::memory_order_relaxed);
  return first;
}

std::int64_t DeltaStore::remove_vertex(VertexId v) {
  std::unique_lock structure(structure_mutex_);
  const VertexId n = num_vertices_.load(std::memory_order_relaxed);
  if (v < 0 || v >= n) throw std::invalid_argument("DeltaStore::remove_vertex: id out of range");
  if (dead_unlocked(v)) return -1;

  // Live adjacency of v: base neighbors not tombstoned by an
  // odd-parity pending run, plus odd-parity pending inserts.
  Bucket& bucket = buckets_[static_cast<std::size_t>(v)];
  std::vector<VertexId> pending(bucket.neighbors);
  std::sort(pending.begin(), pending.end());
  std::vector<VertexId> live;
  std::vector<VertexId> tombstoned;
  for_each_odd_parity_run(pending, [&](VertexId u) {
    (base_contains(v, u) ? tombstoned : live).push_back(u);
  });
  if (v < base_->num_vertices()) {
    for (VertexId u : base_->neighbors(v)) {
      if (!std::binary_search(tombstoned.begin(), tombstoned.end(), u)) live.push_back(u);
    }
  }

  const Epoch now = epoch_.load(std::memory_order_relaxed);
  auto append = [&](VertexId from, VertexId to) {
    Bucket& b = buckets_[static_cast<std::size_t>(from)];
    b.neighbors.push_back(to);
    b.epochs.push_back(now);
    b.removes.push_back(1);
    note_append(stripe_for(from), from, b);
  };
  std::int64_t retracted = 0;
  for (VertexId u : live) {
    append(v, u);
    ++retracted;
    // The reverse direction is retracted only when it actually exists:
    // over a hand-built base that lists an edge one way, u -> v may not
    // be live, and a tombstone for a non-edge would reduce to a phantom
    // INSERT at the next snapshot.
    if (live_unlocked(u, v)) {
      append(u, v);
      ++retracted;
    }
  }
  delta_removes_.fetch_add(static_cast<EdgeId>(retracted), std::memory_order_relaxed);

  dead_since_[static_cast<std::size_t>(v)] = now;
  dead_pos_.emplace(v, dead_list_.size());
  dead_list_.push_back(v);
  dead_changed_ = true;
  // A streamed-in vertex has no base adjacency and every op on it
  // landed in both directions, so the retractions above scrubbed every
  // reference to it: once a fold covers them, the id can be reused.
  if (v >= reclaim_floor_) pending_dead_.push_back(v);
  return retracted;
}

bool DeltaStore::is_dead(VertexId v) const {
  std::shared_lock structure(structure_mutex_);
  if (v < 0 || v >= num_vertices_.load(std::memory_order_relaxed)) return false;
  return dead_unlocked(v);
}

VertexId DeltaStore::reclaim_vertex() {
  std::unique_lock structure(structure_mutex_);
  if (free_ids_.empty()) return -1;
  const VertexId v = free_ids_.back();
  free_ids_.pop_back();
  dead_since_[static_cast<std::size_t>(v)] = 0;
  // Swap-remove via the position index: dataset-vertex deaths stay on
  // the list forever, so a linear find would degrade every recycle.
  const auto it = dead_pos_.find(v);
  const std::size_t slot = it->second;
  dead_pos_.erase(it);
  if (slot + 1 != dead_list_.size()) {
    dead_list_[slot] = dead_list_.back();
    dead_pos_[dead_list_[slot]] = slot;
  }
  dead_list_.pop_back();
  dead_changed_ = true;
  return v;
}

void DeltaStore::annihilate_bucket(Bucket& bucket, Epoch keep_up_to, EdgeId& dropped_inserts,
                                   EdgeId& dropped_removes) {
  // Eligible suffix: ops stamped strictly after `keep_up_to`.  Stamps
  // are nondecreasing per bucket, so the suffix is contiguous.
  const auto cut = std::upper_bound(bucket.epochs.begin(), bucket.epochs.end(), keep_up_to);
  const auto start = static_cast<std::size_t>(cut - bucket.epochs.begin());
  const std::size_t size = bucket.neighbors.size();
  if (start >= size) return;

  // Per-neighbor occurrence counts within the suffix.  Ops of one pair
  // alternate, so an even-length run reduces to nothing and an
  // odd-length run reduces to its LAST op (whose recorded sign is the
  // correct successor of the pre-suffix membership state).
  std::unordered_map<VertexId, std::pair<std::size_t, std::size_t>> runs;  // total, seen
  for (std::size_t i = start; i < size; ++i) ++runs[bucket.neighbors[i]].first;

  std::size_t write = start;
  for (std::size_t i = start; i < size; ++i) {
    auto& run = runs[bucket.neighbors[i]];
    ++run.second;
    const bool keep = (run.first & 1) != 0 && run.second == run.first;
    if (keep) {
      bucket.neighbors[write] = bucket.neighbors[i];
      bucket.epochs[write] = bucket.epochs[i];
      bucket.removes[write] = bucket.removes[i];
      ++write;
    } else {
      (bucket.removes[i] != 0 ? dropped_removes : dropped_inserts) += 1;
    }
  }
  bucket.neighbors.resize(write);
  bucket.epochs.resize(write);
  bucket.removes.resize(write);
}

EdgeId DeltaStore::annihilate() {
  std::unique_lock structure(structure_mutex_);
  // An in-flight fold owns the prefix at or below its cut: the merged
  // base being built off-lock already contains those ops, so erasing
  // one here would desynchronise the rebase.  With no fold in flight
  // every matched pair is erasable.
  const Epoch keep_up_to = fold_in_flight_ ? fold_cut_ : 0;
  EdgeId dropped_inserts = 0;
  EdgeId dropped_removes = 0;
  for (Stripe& stripe : stripes_) {
    std::vector<VertexId> survivors;
    for (VertexId v : stripe.touched) {
      Bucket& bucket = buckets_[static_cast<std::size_t>(v)];
      // Erasing matched pairs keeps every neighbour's op parity, so the
      // bucket's reduction (and the kept overlay) is unchanged: no dirty
      // mark.
      annihilate_bucket(bucket, keep_up_to, dropped_inserts, dropped_removes);
      if (bucket.neighbors.empty()) {
        bucket.listed = false;
      } else {
        survivors.push_back(v);
      }
    }
    stripe.touched = std::move(survivors);
  }
  delta_inserts_.fetch_sub(dropped_inserts, std::memory_order_relaxed);
  delta_removes_.fetch_sub(dropped_removes, std::memory_order_relaxed);
  const EdgeId erased = dropped_inserts + dropped_removes;
  annihilated_ops_.fetch_add(erased, std::memory_order_relaxed);
  return erased;
}

void DeltaStore::begin_fold(Epoch cut) {
  std::unique_lock structure(structure_mutex_);
  if (fold_in_flight_) throw std::logic_error("DeltaStore::begin_fold: fold already in flight");
  fold_in_flight_ = true;
  fold_cut_ = cut;
}

void DeltaStore::abort_fold() {
  std::unique_lock structure(structure_mutex_);
  fold_in_flight_ = false;
  fold_cut_ = 0;
}

bool DeltaStore::fold_in_flight() const {
  std::shared_lock structure(structure_mutex_);
  return fold_in_flight_;
}

EdgeId DeltaStore::annihilated_ops() const {
  return annihilated_ops_.load(std::memory_order_relaxed);
}

void DeltaStore::refresh_overlay_unlocked() {
  std::vector<VertexId> dirty;
  for (Stripe& stripe : stripes_) {
    for (VertexId v : stripe.dirty) buckets_[static_cast<std::size_t>(v)].dirty = false;
    dirty.insert(dirty.end(), stripe.dirty.begin(), stripe.dirty.end());
    stripe.dirty.clear();
  }
  if (dirty.empty()) return;  // the kept overlay is exact: share it as is
  std::sort(dirty.begin(), dirty.end());

  // One ascending pass: the kept overlay's slots between dirty vertices
  // are copied block by block, and each dirty vertex's old slot (if
  // any) is replaced by a fresh reduction of its op log (or dropped
  // when the ops now cancel out).
  const Overlay& old = *overlay_;
  auto next = std::make_shared<Overlay>();
  next->touched.reserve(old.touched.size() + dirty.size());
  next->insert_offsets.reserve(old.touched.size() + dirty.size() + 1);
  next->remove_offsets.reserve(old.touched.size() + dirty.size() + 1);
  next->inserts.reserve(old.inserts.size());
  next->removes.reserve(old.removes.size());
  std::vector<VertexId> ops;
  std::size_t copied = 0;  // old slots [0, copied) are already merged
  for (VertexId v : dirty) {
    const auto found = std::lower_bound(
        old.touched.begin() + static_cast<std::ptrdiff_t>(copied), old.touched.end(), v);
    const auto at = static_cast<std::size_t>(found - old.touched.begin());
    append_slots(old, copied, at, *next);
    copied = at + (found != old.touched.end() && *found == v ? 1 : 0);

    // Reduce the op log to its net effect: odd parity flips base
    // membership (base edge -> tombstone, non-base -> insertion); even
    // parity cancels out.  Processing the sorted copy run by run leaves
    // each per-vertex span sorted — the property the overlay's
    // merged-adjacency iteration relies on.
    const Bucket& bucket = buckets_[static_cast<std::size_t>(v)];
    ops.assign(bucket.neighbors.begin(), bucket.neighbors.end());
    std::sort(ops.begin(), ops.end());
    const std::size_t inserts_before = next->inserts.size();
    const std::size_t removes_before = next->removes.size();
    for_each_odd_parity_run(ops, [&](VertexId u) {
      (base_contains(v, u) ? next->removes : next->inserts).push_back(u);
    });
    if (next->inserts.size() == inserts_before && next->removes.size() == removes_before)
      continue;  // all ops cancelled — no net change for v
    next->touched.push_back(v);
    next->insert_offsets.push_back(static_cast<EdgeId>(next->inserts.size()));
    next->remove_offsets.push_back(static_cast<EdgeId>(next->removes.size()));
  }
  append_slots(old, copied, old.touched.size(), *next);
  overlay_ = std::move(next);
}

DeltaStore::Snapshot DeltaStore::snapshot(bool advance_epoch) {
  std::unique_lock structure(structure_mutex_);
  refresh_overlay_unlocked();
  if (dead_changed_) {
    auto dead = std::make_shared<std::vector<VertexId>>(dead_list_);
    std::sort(dead->begin(), dead->end());
    dead_sorted_ = std::move(dead);
    dead_changed_ = false;
  }
  Snapshot snap;
  snap.epoch = epoch_.load(std::memory_order_relaxed);
  snap.num_vertices = num_vertices_.load(std::memory_order_relaxed);
  snap.raw_ops = delta_ops();
  snap.num_inserts = static_cast<EdgeId>(overlay_->inserts.size());
  snap.num_removes = static_cast<EdgeId>(overlay_->removes.size());
  snap.overlay = overlay_;
  snap.dead = dead_sorted_;
  if (advance_epoch) epoch_.fetch_add(1, std::memory_order_relaxed);
  return snap;
}

void DeltaStore::truncate_unlocked(Epoch epoch) {
  EdgeId dropped_inserts = 0;
  EdgeId dropped_removes = 0;
  for (Stripe& stripe : stripes_) {
    std::vector<VertexId> survivors;
    for (VertexId v : stripe.touched) {
      Bucket& bucket = buckets_[static_cast<std::size_t>(v)];
      // Stamps are nondecreasing within a bucket: the cut is a prefix.
      const auto cut = std::upper_bound(bucket.epochs.begin(), bucket.epochs.end(), epoch);
      const auto count = static_cast<std::size_t>(cut - bucket.epochs.begin());
      if (count > 0) {
        mark_dirty(stripe, v, bucket);
        for (std::size_t i = 0; i < count; ++i) {
          if (bucket.removes[i] != 0) {
            ++dropped_removes;
          } else {
            ++dropped_inserts;
          }
        }
        bucket.neighbors.erase(bucket.neighbors.begin(),
                               bucket.neighbors.begin() + static_cast<std::ptrdiff_t>(count));
        bucket.epochs.erase(bucket.epochs.begin(), cut);
        bucket.removes.erase(bucket.removes.begin(),
                             bucket.removes.begin() + static_cast<std::ptrdiff_t>(count));
      }
      if (bucket.neighbors.empty()) {
        bucket.listed = false;
      } else {
        survivors.push_back(v);
      }
    }
    stripe.touched = std::move(survivors);
  }
  delta_inserts_.fetch_sub(dropped_inserts, std::memory_order_relaxed);
  delta_removes_.fetch_sub(dropped_removes, std::memory_order_relaxed);
}

void DeltaStore::rebase(std::shared_ptr<const CsrGraph> base, Epoch merged_up_to) {
  if (!base) throw std::invalid_argument("DeltaStore::rebase: null base graph");
  std::unique_lock structure(structure_mutex_);
  if (base->num_vertices() > static_cast<VertexId>(buckets_.size()))
    throw std::invalid_argument("DeltaStore::rebase: base larger than vertex space");
  // Re-validate an off-lock fold's cut: the merged base must have been
  // built from exactly the frontier begin_fold declared, or truncating
  // `merged_up_to` would drop ops the base never absorbed.
  if (fold_in_flight_ && fold_cut_ != merged_up_to)
    throw std::logic_error("DeltaStore::rebase: merged epoch does not match the in-flight fold cut");
  fold_in_flight_ = false;
  fold_cut_ = 0;
  base_ = std::move(base);
  truncate_unlocked(merged_up_to);
  // Every kept reduction was taken against the old base: start over
  // and re-reduce each pending vertex against the new one.
  overlay_ = std::make_shared<const Overlay>();
  for (Stripe& stripe : stripes_) {
    for (VertexId v : stripe.touched) mark_dirty(stripe, v, buckets_[static_cast<std::size_t>(v)]);
  }
  // Deaths folded by this compaction are fully scrubbed: the merged
  // base isolates the vertex and the truncate above dropped every op
  // that referenced it (all were stamped <= the death epoch).  The id
  // is now safe to hand back to add_vertex.
  auto pending = pending_dead_.begin();
  for (auto it = pending_dead_.begin(); it != pending_dead_.end(); ++it) {
    if (dead_since_[static_cast<std::size_t>(*it)] <= merged_up_to) {
      free_ids_.push_back(*it);
    } else {
      *pending++ = *it;
    }
  }
  pending_dead_.erase(pending, pending_dead_.end());
}

std::shared_ptr<const CsrGraph> DeltaStore::base() const {
  std::shared_lock structure(structure_mutex_);
  return base_;
}

VertexId DeltaStore::num_vertices() const { return num_vertices_.load(std::memory_order_relaxed); }

EdgeId DeltaStore::delta_edges() const { return delta_inserts_.load(std::memory_order_relaxed); }

EdgeId DeltaStore::delta_removes() const { return delta_removes_.load(std::memory_order_relaxed); }

EdgeId DeltaStore::delta_ops() const { return delta_edges() + delta_removes(); }

std::int64_t DeltaStore::dead_vertices() const {
  std::shared_lock structure(structure_mutex_);
  return static_cast<std::int64_t>(dead_list_.size());
}

std::int64_t DeltaStore::recyclable_vertices() const {
  std::shared_lock structure(structure_mutex_);
  return static_cast<std::int64_t>(free_ids_.size());
}

bool DeltaStore::has_pending_scrubs() const {
  std::shared_lock structure(structure_mutex_);
  return !pending_dead_.empty();
}

Epoch DeltaStore::epoch() const { return epoch_.load(std::memory_order_relaxed); }

std::vector<VertexId> DeltaStore::pending_targets(VertexId v) const {
  std::unique_lock structure(structure_mutex_);
  if (v < 0 || v >= num_vertices_.load(std::memory_order_relaxed))
    throw std::invalid_argument("DeltaStore::pending_targets: id out of range");
  return buckets_[static_cast<std::size_t>(v)].neighbors;
}

}  // namespace hyscale
