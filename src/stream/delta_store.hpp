// Per-vertex edge-operation buffers for streaming graph updates —
// insertions AND deletions.
//
// The DeltaStore absorbs edge/vertex mutations that arrive while the
// immutable base CSR keeps serving readers.  Each accepted mutation is
// an epoch-stamped, signed OP appended to the owning vertex's bucket:
// (+, v) inserts a directed edge, (−, v) retracts one (a tombstone).
// Edges arrive as undirected pairs (add_edge_pair / remove_edge_pair),
// one op per direction.  Ops are append-only — a deletion never erases
// the insertion it cancels, it counter-records it — which is what makes
// deletions safe against an in-flight compaction: a snapshot at epoch E
// captures exactly the op prefix stamped <= E, the compactor folds that
// prefix into a fresh base, and the surviving suffix (stamped > E)
// applies identically against old base + prefix or the merged base.
// Erasing a captured record instead would silently resurrect (or
// re-lose) the edge after the rebase — the classic
// delete-racing-compaction bug the differential tests pin down.
//
// Ingest-time validation keeps per-pair ops strictly alternating: an
// insert is accepted only when the directed edge is currently dead
// (absent from base XOR flipped by pending ops), a removal only when it
// is currently live.  Membership of (u, v) is therefore always
// base_has(u, v) XOR parity(pending ops for v in bucket u) — reduction
// to the overlay view is a per-neighbor parity count, no op ordering
// required.
//
// Vertex deletions (remove_vertex) retract every live incident edge in
// both directions inside one exclusive section and mark the id dead;
// dead ids reject further edge ops.  A streamed-in vertex has no base
// adjacency and every op on it landed in both directions, so its
// retirement scrubs every reference.  After a compaction has folded the
// death (merged_up_to >= death epoch), such ids become recyclable:
// reclaim_vertex() hands them back so add_vertex can reuse the feature
// row instead of growing the extension area forever.
//
// Synchronisation model: a shared_mutex arbitrates between ingest
// (shared + per-stripe mutex) and structural operations — snapshot,
// annihilate, rebase, add_vertices, remove_vertex, reclaim_vertex —
// which take it exclusively.  Pair operations hold BOTH endpoint
// stripes for the whole pair, so concurrent add/remove races on the
// same undirected edge can never leave it half-present.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"

namespace hyscale {

/// Monotone update-cut counter; every delta op carries the epoch it
/// arrived in.
using Epoch = std::uint64_t;

class DeltaStore {
 public:
  /// `base` (and every rebase() base) must list each vertex's neighbours
  /// in ascending order, as build_csr does: membership checks binary-
  /// search it.
  explicit DeltaStore(std::shared_ptr<const CsrGraph> base, std::size_t num_stripes = 64);

  ~DeltaStore();  ///< retires structure_mutex_ for ThreadSanitizer (common/sanitizer.hpp)

  DeltaStore(const DeltaStore&) = delete;
  DeltaStore& operator=(const DeltaStore&) = delete;

  /// Inserts BOTH directions of undirected edge {u, v}, stamped with
  /// the current epoch, while holding both endpoint stripes, so a
  /// concurrent remove_edge_pair (or an exclusive snapshot) can never
  /// observe the pair half-inserted.  Returns the number of directed
  /// edges that landed: 0 (live/self-loop/dead endpoint) or 2 (1 only
  /// when the base lists the edge in one direction, which no dataset
  /// here does).  Throws on out-of-range ids.
  int add_edge_pair(VertexId u, VertexId v);

  /// Tombstones BOTH directions of undirected edge {u, v} under both
  /// stripes.  Returns 0 (not live / dead endpoint) or 2 (1 only over
  /// a one-directional base edge).
  int remove_edge_pair(VertexId u, VertexId v);

  /// Extends the vertex space by `count` empty vertices; returns the
  /// first new id.  New vertices have no base adjacency until a
  /// compaction folds them into a fresh CSR.
  VertexId add_vertices(std::int64_t count);

  /// Retracts every live edge incident to v — each live out-edge plus
  /// its reverse when that direction is itself live (always, unless a
  /// hand-built base lists an edge one way) — and marks v dead: further
  /// edge ops touching v are rejected and v's live out-degree is 0 from
  /// the next snapshot on.  Returns the number of directed removals
  /// appended, or -1 when v is already dead.  Throws on out-of-range
  /// ids.  Exclusive (structural) operation.
  std::int64_t remove_vertex(VertexId v);

  /// Whether v has been retired by remove_vertex (false for ids out of
  /// range).  Recycled ids read alive again.
  bool is_dead(VertexId v) const;

  /// Pops a recyclable id — a streamed-in vertex whose death has been
  /// fully folded by a compaction (so no base adjacency, no pending
  /// ops, and no other bucket still references it) — marks it alive
  /// again and returns it; -1 when none is available.  The caller owns
  /// re-initialising the feature row.
  VertexId reclaim_vertex();

  /// In-place tombstone GC: erases matched insert/tombstone pairs that
  /// reduce to nothing, WITHOUT a CSR rebuild.  Per neighbor, an
  /// even-length run vanishes entirely and an odd-length run keeps its
  /// last op, so per-pair alternation, the membership parity, and epoch
  /// monotonicity are all preserved.  Every matched pair is erasable
  /// except while a fold is in flight (begin_fold): then ops stamped at
  /// or below the fold's cut are kept — the fold's snapshot captured
  /// them, rebase will merge them into the base and truncate them, and
  /// an erased counter-op would resurrect (or re-lose) the edge.
  /// Publish-only snapshots need no such guard: a GraphVersion holds
  /// its own immutable overlay, and the surviving ops re-reduce to the
  /// same net at the next snapshot.  Returns the number of op records
  /// erased (equal counts of inserts and tombstones).  Exclusive
  /// (structural) operation.
  EdgeId annihilate();

  /// Cumulative op records erased by annihilate().
  EdgeId annihilated_ops() const;

  /// Declares an off-lock fold in flight over the op prefix stamped
  /// <= `cut` (the epoch of the snapshot the fold is building from).
  /// Until the matching rebase() or abort_fold(), annihilate() refuses
  /// to erase ops at or below the cut, so a cancelled pair straddling the cut survives for the
  /// rebase to truncate.  At most one fold may be in flight; a second
  /// begin_fold throws std::logic_error.
  void begin_fold(Epoch cut);

  /// Abandons an in-flight fold without rebasing (the build failed or
  /// was discarded).  The buffered ops are untouched — the next
  /// snapshot reduces them exactly as if the fold never started.
  /// No-op when no fold is in flight.
  void abort_fold();

  /// Whether a begin_fold cut is outstanding (no rebase/abort yet).
  bool fold_in_flight() const;

  /// The pending ops reduced to their net effect: per touched vertex
  /// (ascending ids, each with a net change) the net insertions (sorted,
  /// disjoint from base) and net removals (sorted, subset of base
  /// adjacency), as flat offset-indexed arrays.  Immutable once
  /// published; snapshots and GraphVersions share it.
  struct Overlay {
    std::vector<VertexId> touched;          ///< vertices with a net change, ascending
    std::vector<EdgeId> insert_offsets{0};  ///< size touched.size() + 1
    std::vector<VertexId> inserts;          ///< sorted per touched vertex
    std::vector<EdgeId> remove_offsets{0};  ///< size touched.size() + 1
    std::vector<VertexId> removes;          ///< sorted per touched vertex
  };

  /// Point-in-time REDUCED view of the pending ops, taken under the
  /// exclusive lock (single linearisation point).  Ops that cancelled
  /// out (insert-then-delete of the same pair) reduce to nothing.  With
  /// `advance_epoch`, the store epoch is bumped inside the same
  /// critical section, so the snapshot covers exactly the ops stamped
  /// <= its `epoch`.
  ///
  /// Cost: the store keeps the overlay of its previous snapshot and
  /// re-reduces only the vertices whose op log changed since (plus one
  /// contiguous copy of the overlay when any did); after a rebase every
  /// pending vertex is re-reduced once against the new base.
  struct Snapshot {
    Epoch epoch = 0;            ///< all covered ops are stamped <= this
    VertexId num_vertices = 0;  ///< vertex space at capture time
    EdgeId raw_ops = 0;         ///< unreduced op records captured (incl. cancelled pairs)
    EdgeId num_inserts = 0;     ///< net inserted directed edges
    EdgeId num_removes = 0;     ///< net tombstoned directed edges
    std::shared_ptr<const Overlay> overlay;             ///< never null
    std::shared_ptr<const std::vector<VertexId>> dead;  ///< dead vertex ids, sorted; never null
  };
  Snapshot snapshot(bool advance_epoch);

  /// Compaction install: atomically replaces the base (which now has
  /// every op stamped <= `merged_up_to` applied — insertions added,
  /// tombstoned edges dropped) and truncates that prefix, so no edge is
  /// ever both absent from the membership check's base and absent from
  /// the buffers.  Dead streamed-in vertices whose death epoch is
  /// covered become recyclable.  When a fold is in flight, the rebase
  /// re-validates the cut (`merged_up_to` must equal the begin_fold
  /// epoch — anything else means the merged base was built from a
  /// different frontier and would corrupt the overlay; throws
  /// std::logic_error) and clears the fold guard.
  void rebase(std::shared_ptr<const CsrGraph> base, Epoch merged_up_to);

  /// The base the pending ops overlay.
  std::shared_ptr<const CsrGraph> base() const;

  VertexId num_vertices() const;
  EdgeId delta_edges() const;    ///< pending insert ops
  EdgeId delta_removes() const;  ///< pending remove ops (tombstones)
  EdgeId delta_ops() const;      ///< inserts + removes — the compaction trigger
  std::int64_t dead_vertices() const;
  std::int64_t recyclable_vertices() const;
  /// Dead streamed-in ids still waiting for a compaction to fold their
  /// death (compact even when no edge ops are pending).
  bool has_pending_scrubs() const;
  Epoch epoch() const;
  std::size_t num_stripes() const { return stripes_.size(); }

  /// v's pending op targets in append order, inserts and tombstones
  /// alike — the raw input of v's reduction.  For tests that check
  /// snapshot() against a from-scratch reduction.
  std::vector<VertexId> pending_targets(VertexId v) const;

 private:
  /// One vertex's pending op log.  `epochs` and `removes` parallel
  /// `neighbors`; removes[i] != 0 marks op i as a tombstone.
  struct Bucket {
    std::vector<VertexId> neighbors;
    std::vector<Epoch> epochs;
    std::vector<std::uint8_t> removes;
    bool listed = false;  ///< already on its stripe's touched list
    bool dirty = false;   ///< already on its stripe's dirty list
  };
  struct Stripe {
    std::mutex mutex;
    std::vector<VertexId> touched;  ///< vertices of this stripe with pending ops
    std::vector<VertexId> dirty;    ///< vertices whose op log changed since the last snapshot
  };

  Stripe& stripe_for(VertexId v) {
    return stripes_[static_cast<std::size_t>(v) % stripes_.size()];
  }
  bool base_contains(VertexId u, VertexId v) const;
  /// Records an op appended to v's bucket: lists it as pending and as
  /// changed since the last snapshot.  Caller holds v's stripe (or the
  /// exclusive lock).
  void note_append(Stripe& stripe, VertexId v, Bucket& bucket);
  /// Queues v for re-reduction at the next snapshot.  Caller holds v's
  /// stripe (or the exclusive lock).
  static void mark_dirty(Stripe& stripe, VertexId v, Bucket& bucket);
  /// Current membership of directed edge u -> v (base XOR pending-op
  /// parity).  Caller holds structure_mutex_ and, for shared holders,
  /// u's stripe.
  bool live_unlocked(VertexId u, VertexId v) const;
  /// Caller holds structure_mutex_ (shared suffices) AND u's stripe.
  bool edge_op_locked(Stripe& stripe, VertexId u, VertexId v, bool remove);
  int edge_pair_op(VertexId u, VertexId v, bool remove);
  void check_range_unlocked(VertexId u, VertexId v) const;
  bool dead_unlocked(VertexId v) const {
    return dead_since_[static_cast<std::size_t>(v)] != 0;
  }
  /// Removes every pending op stamped <= `epoch`.  Within a bucket,
  /// stamps are nondecreasing (appends happen in epoch order), so the
  /// removed ops always form a prefix.
  void truncate_unlocked(Epoch epoch);
  /// Erases cancelled pairs among ops stamped > `keep_up_to` in one
  /// bucket, adding them to the dropped counts.  Caller holds
  /// structure_mutex_ exclusively.
  static void annihilate_bucket(Bucket& bucket, Epoch keep_up_to, EdgeId& dropped_inserts,
                                EdgeId& dropped_removes);
  /// Merges fresh reductions of every dirty vertex into overlay_ and
  /// clears the dirty lists.  Caller holds structure_mutex_ exclusively.
  void refresh_overlay_unlocked();

  mutable std::shared_mutex structure_mutex_;  ///< shared: ingest; exclusive: structural ops
  std::shared_ptr<const CsrGraph> base_;       ///< swapped only under the exclusive lock
  std::vector<Bucket> buckets_;                ///< one per vertex (base + streamed)
  std::vector<Stripe> stripes_;
  std::vector<Epoch> dead_since_;      ///< 0 = alive (epochs start at 1)
  std::vector<VertexId> dead_list_;    ///< all currently-dead ids (unsorted, swap-removed)
  /// Reduction of every bucket as of the last snapshot; a vertex not on
  /// a dirty list has its exact current reduction here.
  std::shared_ptr<const Overlay> overlay_;
  /// dead_list_ sorted, as of the last snapshot that saw it change.
  std::shared_ptr<const std::vector<VertexId>> dead_sorted_;
  bool dead_changed_ = false;  ///< dead_list_ changed since dead_sorted_ was taken
  std::unordered_map<VertexId, std::size_t> dead_pos_;  ///< id -> dead_list_ slot
  std::vector<VertexId> pending_dead_; ///< dead streamed-in ids awaiting a folding compaction
  std::vector<VertexId> free_ids_;     ///< scrubbed ids ready for reclaim_vertex()
  VertexId reclaim_floor_ = 0;         ///< ids below this (dataset vertices) never recycle
  bool fold_in_flight_ = false;  ///< begin_fold cut outstanding (guarded by structure_mutex_)
  Epoch fold_cut_ = 0;           ///< in-flight fold's snapshot epoch — annihilation floor
  std::atomic<EdgeId> annihilated_ops_{0};
  std::atomic<Epoch> epoch_{1};
  std::atomic<EdgeId> delta_inserts_{0};
  std::atomic<EdgeId> delta_removes_{0};
  std::atomic<VertexId> num_vertices_{0};
};

}  // namespace hyscale
