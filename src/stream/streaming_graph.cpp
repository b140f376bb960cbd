#include "stream/streaming_graph.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/sanitizer.hpp"
#include "common/strutil.hpp"
#include "graph/builder.hpp"

namespace hyscale {

namespace {

/// ` key=<ms>`: the journal detail field for a stage that ran from
/// `begin_ns` to `end_ns` on the steady_ns() timeline.
std::string ms_field(const char* key, std::int64_t begin_ns, std::int64_t end_ns) {
  return std::string(" ") + key + "=" +
         format_double(static_cast<double>(end_ns - begin_ns) * 1e-6, 3);
}

}  // namespace

// ------------------------------------------------------------ GraphVersion

GraphVersion::GraphVersion(std::shared_ptr<const CsrGraph> base, EdgeId base_max_degree,
                           DeltaStore::Snapshot overlay, std::uint64_t id)
    : base_(std::move(base)),
      num_vertices_(overlay.num_vertices),
      inserted_edges_(overlay.num_inserts),
      removed_edges_(overlay.num_removes),
      max_degree_(base_max_degree),
      epoch_(overlay.epoch),
      id_(id),
      overlay_(std::move(overlay.overlay)),
      dead_(std::move(overlay.dead)) {
  const std::vector<VertexId>& touched = overlay_->touched;
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(2, 2 * touched.size()));
  slot_shift_ = static_cast<unsigned>(64 - std::countr_zero(capacity));
  slots_.resize(capacity);
  const std::size_t mask = capacity - 1;
  for (std::size_t s = 0; s < touched.size(); ++s) {
    const VertexId v = touched[s];
    std::size_t i = home(v);
    while (slots_[i].vertex >= 0) i = (i + 1) & mask;
    slots_[i] = {v, static_cast<std::int64_t>(s)};
    // Live degree is exact for touched vertices; untouched vertices
    // keep their base degree, so max(base max, touched live degrees) is
    // a valid upper bound for full-neighborhood fanouts.
    max_degree_ = std::max(max_degree_, live_degree(v, static_cast<std::int64_t>(s)));
  }
}

std::span<const VertexId> GraphVersion::inserted_neighbors(VertexId v) const {
  const std::int64_t s = slot(v);
  if (s < 0) return {};
  return span_at(overlay_->insert_offsets, overlay_->inserts, s);
}

std::span<const VertexId> GraphVersion::removed_neighbors(VertexId v) const {
  const std::int64_t s = slot(v);
  if (s < 0) return {};
  return span_at(overlay_->remove_offsets, overlay_->removes, s);
}

void GraphVersion::append_neighbors(VertexId v, std::vector<VertexId>& out) const {
  const auto base = base_neighbors(v);
  const std::int64_t s = slot(v);
  if (s < 0) {
    out.insert(out.end(), base.begin(), base.end());
    return;
  }
  const auto ins = span_at(overlay_->insert_offsets, overlay_->inserts, s);
  const auto rem = span_at(overlay_->remove_offsets, overlay_->removes, s);
  // Tombstones are a subset of base, insertions disjoint from it, and
  // all three spans are sorted (base by build_csr, the overlay spans by
  // the snapshot reduction).  So the live adjacency, in the globally
  // sorted order a from-scratch rebuild would store, is the base copied
  // in bulk between the (few) overlay entries: each tombstone ends a run
  // and is skipped, each insertion ends a run and is emitted.
  out.reserve(out.size() + base.size() - rem.size() + ins.size());
  auto run = base.begin();
  std::size_t ri = 0;
  std::size_t ii = 0;
  while (ri < rem.size() || ii < ins.size()) {
    const bool tombstone = ii == ins.size() || (ri < rem.size() && rem[ri] < ins[ii]);
    const VertexId next = tombstone ? rem[ri++] : ins[ii++];
    const auto end = std::lower_bound(run, base.end(), next);
    out.insert(out.end(), run, end);
    if (tombstone) {
      run = end + 1;
    } else {
      out.push_back(next);
      run = end;
    }
  }
  out.insert(out.end(), run, base.end());
}

bool GraphVersion::alive(VertexId v) const {
  return !std::binary_search(dead_->begin(), dead_->end(), v);
}

bool GraphVersion::validate() const {
  if (!base_->validate()) return false;
  if (num_vertices_ < base_->num_vertices()) return false;
  const DeltaStore::Overlay& o = *overlay_;
  if (o.insert_offsets.size() != o.touched.size() + 1) return false;
  if (o.remove_offsets.size() != o.touched.size() + 1) return false;
  if (o.insert_offsets.front() != 0 || o.remove_offsets.front() != 0) return false;
  if (o.insert_offsets.back() != static_cast<EdgeId>(o.inserts.size())) return false;
  if (o.remove_offsets.back() != static_cast<EdgeId>(o.removes.size())) return false;
  if (inserted_edges_ != static_cast<EdgeId>(o.inserts.size())) return false;
  if (removed_edges_ != static_cast<EdgeId>(o.removes.size())) return false;
  if (!std::is_sorted(dead_->begin(), dead_->end())) return false;
  for (std::size_t s = 0; s < o.touched.size(); ++s) {
    const VertexId v = o.touched[s];
    if (v < 0 || v >= num_vertices_) return false;
    if (s > 0 && o.touched[s - 1] >= v) return false;  // ascending, duplicate-free
    if (slot(v) != static_cast<std::int64_t>(s)) return false;
    if (o.insert_offsets[s] > o.insert_offsets[s + 1]) return false;
    if (o.remove_offsets[s] > o.remove_offsets[s + 1]) return false;
    if (o.insert_offsets[s] == o.insert_offsets[s + 1] &&
        o.remove_offsets[s] == o.remove_offsets[s + 1])
      return false;  // touched vertices must carry a net change
    const auto base = base_neighbors(v);
    const auto ins = inserted_neighbors(v);
    const auto rem = removed_neighbors(v);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const VertexId u = ins[i];
      if (u < 0 || u >= num_vertices_ || u == v) return false;
      if (i > 0 && ins[i - 1] >= u) return false;  // sorted, duplicate-free
      // Insertions must stay disjoint from base.
      if (std::find(base.begin(), base.end(), u) != base.end()) return false;
    }
    for (std::size_t i = 0; i < rem.size(); ++i) {
      const VertexId u = rem[i];
      if (i > 0 && rem[i - 1] >= u) return false;
      // Tombstones must retract actual base edges.
      if (std::find(base.begin(), base.end(), u) == base.end()) return false;
    }
  }
  // Dead vertices are fully retracted: live degree 0 as of this version.
  for (VertexId v : *dead_) {
    if (v < 0 || v >= num_vertices_) return false;
    if (degree(v) != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------- StreamingGraph

StreamingGraph::StreamingGraph(const Dataset& dataset, StreamingConfig config,
                               std::shared_ptr<MutableFeatureStore> features)
    : dataset_(&dataset),
      config_(config),
      delta_(std::make_shared<const CsrGraph>(dataset.graph)),
      features_(features != nullptr ? std::move(features)
                                    : std::make_shared<MutableFeatureStore>(dataset.features)) {
  if (features_->rows() != dataset.graph.num_vertices())
    throw std::invalid_argument("StreamingGraph: features/graph size mismatch");
  // The overlay merge (and the rebuild equivalence it guarantees) and
  // the store's binary-search membership check require sorted base
  // adjacency — what build_csr always produces.
  for (VertexId v = 0; v < dataset.graph.num_vertices(); ++v) {
    const auto neighbors = dataset.graph.neighbors(v);
    if (!std::is_sorted(neighbors.begin(), neighbors.end()))
      throw std::invalid_argument(
          "StreamingGraph: base adjacency must be sorted per vertex (vertex " +
          std::to_string(v) + " is not)");
  }
  const auto base = delta_.base();
  base_max_degree_ = base->max_degree();
  bind_telemetry();
  install_version(base, base_max_degree_, delta_.snapshot(/*advance_epoch=*/false),
                  std::nullopt);
}

StreamingGraph::~StreamingGraph() {
  if (config_.telemetry != nullptr) config_.telemetry->registry().detach(this);
  forget_mutexes({&version_mutex_, &maintenance_mutex_, &vertex_mutex_, &hook_mutex_,
                  &cache_mutex_, &lag_mutex_});
}

void StreamingGraph::bind_telemetry() {
  if (config_.telemetry == nullptr) return;
  journal_ = &config_.telemetry->journal();
  MetricsRegistry& reg = config_.telemetry->registry();
  // Per-shard graphs prefix every name ("shard0.stream.publishes") so N
  // graphs sharing one registry never collide; the flat single-graph
  // names are the empty-prefix case.
  const auto name = [this](const char* suffix) { return config_.metric_prefix + suffix; };
  // Event counts are this graph's own atomics (the ones stats()
  // reads), pulled at snapshot time like the structural state below —
  // an event is counted once, and counted with telemetry off too.
  const auto count = [&](const char* suffix, const std::atomic<std::int64_t>& counter) {
    register_count(reg, name(suffix), this, counter);
  };
  count("stream.ingested_edges", ingested_edges_);
  count("stream.duplicate_edges", duplicate_edges_);
  count("stream.removed_edges", removed_edges_);
  count("stream.rejected_removals", rejected_removals_);
  count("stream.added_vertices", added_vertices_);
  count("stream.removed_vertices", removed_vertices_);
  count("stream.recycled_vertices", recycled_vertices_);
  count("stream.feature_updates", feature_updates_);
  count("stream.publishes", publishes_);
  count("stream.compactions", compactions_);
  count("stream.annihilations", annihilations_);
  count("stream.expired_vertices", expired_vertices_);
  count("stream.cache_reranks", cache_reranks_);
  reg.register_histogram(name("stream.publish_lag_ms"), this, publish_lag_);
  // Structural state is read from the delta store and the feature
  // store, which already hold it.  Every callback is detached (values
  // frozen) in the destructor.
  reg.register_callback(name("stream.overlay_edges"), this,
                        [this] { return static_cast<double>(delta_.delta_edges()); });
  reg.register_callback(name("stream.tombstones"), this,
                        [this] { return static_cast<double>(delta_.delta_removes()); });
  reg.register_callback(name("stream.base_edges"), this,
                        [this] { return static_cast<double>(delta_.base()->num_edges()); });
  reg.register_callback(name("stream.dead_vertices"), this,
                        [this] { return static_cast<double>(delta_.dead_vertices()); });
  reg.register_callback(name("stream.num_vertices"), this,
                        [this] { return static_cast<double>(delta_.num_vertices()); });
  reg.register_callback(name("stream.version_id"), this,
                        [this] { return static_cast<double>(current()->id()); });
  reg.register_callback(name("stream.annihilated_ops"), this,
                        [this] { return static_cast<double>(delta_.annihilated_ops()); });
  reg.register_callback(name("stream.recyclable_vertices"), this,
                        [this] { return static_cast<double>(delta_.recyclable_vertices()); });
  reg.register_callback(name("featstore.rows"), this,
                        [this] { return static_cast<double>(features_->rows()); });
  reg.register_callback(name("featstore.released_rows"), this,
                        [this] { return static_cast<double>(features_->released_rows()); });
}

bool StreamingGraph::add_edge(VertexId u, VertexId v) {
  // Both directions under both stripes: no snapshot (or racing removal)
  // ever observes a half-inserted undirected edge.
  const std::int64_t landed = delta_.add_edge_pair(u, v);
  if (landed == 0) {
    duplicate_edges_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ingested_edges_.fetch_add(landed, std::memory_order_relaxed);
  note_pending_ingest();
  return true;
}

bool StreamingGraph::remove_edge(VertexId u, VertexId v) {
  const std::int64_t landed = delta_.remove_edge_pair(u, v);
  if (landed == 0) {
    rejected_removals_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  removed_edges_.fetch_add(landed, std::memory_order_relaxed);
  note_pending_ingest();
  return true;
}

VertexId StreamingGraph::add_vertex(std::span<const float> features) {
  // Before any id is reclaimed or allocated: a rejected row must leave
  // the vertex space and the free pool as they were.
  features_->validate_row(features);
  VertexId id;
  bool recycled = false;
  {
    std::lock_guard lock(vertex_mutex_);
    // Prefer a recycled id: the dead vertex's edges were folded away by
    // a compaction, so the slot is indistinguishable from a fresh one,
    // and its extension feature row is reused instead of growing the
    // store.  Reclaim + reuse stay under vertex_mutex_ so they pair
    // atomically against remove_vertex's retire + release.  Sharded
    // facades disable recycling: all shards must hand out the SAME id
    // for the same logical add, and free lists drain on independent
    // per-shard compaction schedules.
    id = config_.recycle_ids ? delta_.reclaim_vertex() : VertexId{-1};
    if (id >= 0) {
      features_->reuse_row(id, features);
      recycled = true;
    } else {
      // Feature row first: any version published after add_vertices()
      // sees a vertex whose feature row already exists.  A shared store
      // (sharded mode) already holds the row when an earlier shard
      // added this id.
      const VertexId next = delta_.num_vertices();
      const std::int64_t row =
          features_->rows() > next ? next : features_->append_row(features);
      id = delta_.add_vertices(1);
      if (row != id)
        throw std::logic_error("StreamingGraph: feature rows out of sync with vertex space");
    }
  }
  if (recycled) recycled_vertices_.fetch_add(1, std::memory_order_relaxed);
  added_vertices_.fetch_add(1, std::memory_order_relaxed);
  note_pending_ingest();
  return id;
}

bool StreamingGraph::remove_vertex(VertexId v) {
  {
    std::lock_guard lock(vertex_mutex_);
    const std::int64_t retracted = delta_.remove_vertex(v);
    if (retracted < 0) return false;
    // Zero the row and evict any pinned device copy under cache_mutex_
    // so neither a racing update_feature nor the cache can ever serve
    // the retracted entity's features; vertex_mutex_ is still held, so
    // release always happens-before any reclaim/reuse of the id.
    std::lock_guard cache_lock(cache_mutex_);
    features_->release_row(v);
    if (cache_ != nullptr) {
      const VertexId ids[1] = {v};
      cache_->evict(std::span<const VertexId>(ids, 1));
    }
    removed_edges_.fetch_add(retracted, std::memory_order_relaxed);
  }
  removed_vertices_.fetch_add(1, std::memory_order_relaxed);
  note_pending_ingest();
  return true;
}

bool StreamingGraph::update_feature(VertexId v, std::span<const float> values) {
  // cache_mutex_ serialises the row write with the cache refresh, so the
  // device copy can never lag a completed update.  It also serialises
  // against remove_vertex's release+evict, so the dead check below can
  // never interleave with a retraction: a retracted entity's zeroed row
  // is never repopulated.
  features_->validate_row(values);
  std::lock_guard lock(cache_mutex_);
  if (delta_.is_dead(v)) return false;
  features_->update_row(v, values);
  if (cache_ != nullptr) {
    const VertexId ids[1] = {v};
    cache_->invalidate(std::span<const VertexId>(ids, 1));
  }
  feature_updates_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<const GraphVersion> StreamingGraph::publish() {
  const std::int64_t begin_ns = journal_ != nullptr ? steady_ns() : 0;
  std::lock_guard maintenance(maintenance_mutex_);
  auto base = delta_.base();
  const EdgeId base_max = base_max_degree_;
  // Claim the marker BEFORE the snapshot: an op racing the snapshot
  // re-arms it, so it can never be reset away while still unpublished.
  const auto marker = take_pending_marker();
  auto snapshot = delta_.snapshot(/*advance_epoch=*/true);
  {
    std::function<void()> hook;
    {
      std::lock_guard hook_lock(hook_mutex_);
      hook = publish_hook_;
    }
    if (hook) hook();
  }
  const std::uint64_t ops =
      static_cast<std::uint64_t>(snapshot.num_inserts + snapshot.num_removes);
  auto version = install_version(std::move(base), base_max, std::move(snapshot), marker);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  if (journal_ != nullptr)
    journal_->log("publish", "version=" + std::to_string(version->id()) +
                                 " overlay_ops=" + std::to_string(ops) +
                                 ms_field("ms", begin_ns, steady_ns()));
  return version;
}

std::shared_ptr<const GraphVersion> StreamingGraph::current() const {
  std::lock_guard lock(version_mutex_);
  return current_;
}

bool StreamingGraph::compact() {
  // ---- 1. CUT (locked, O(overlay)): snapshot + epoch cut + in-flight
  // mark.  No pending-marker claim here: the cut ops stay INVISIBLE
  // until a publish or the rebase installs them, so they must keep
  // driving pending_staleness() — that is exactly what lets the SLO
  // publisher make them visible while the build below runs off-lock.
  DeltaStore::Snapshot snap;
  std::shared_ptr<const CsrGraph> base;
  // The journal's fold event carries each phase's duration.
  const bool timed = journal_ != nullptr;
  const std::int64_t cut_begin_ns = timed ? steady_ns() : 0;
  {
    std::lock_guard maintenance(maintenance_mutex_);
    if (fold_in_flight_.load(std::memory_order_relaxed)) return false;  // one fold at a time
    base = delta_.base();
    const bool scrubs = delta_.has_pending_scrubs();
    snap = delta_.snapshot(/*advance_epoch=*/true);
    // Raw ops, not net: cancelled insert/delete pairs reduce to no
    // topology change but must still be truncated, or the op-count
    // compaction trigger could never clear under churn.
    if (snap.raw_ops == 0 && snap.num_vertices == base->num_vertices() && !scrubs) return false;
    delta_.begin_fold(snap.epoch);
    fold_in_flight_.store(true, std::memory_order_release);
  }
  const std::int64_t build_begin_ns = timed ? steady_ns() : 0;
  std::int64_t build_end_ns = 0;

  // ---- 2. BUILD (off-lock, O(base)): `base` and `snap` are private
  // immutable copies, so publishes, ingest and annihilation passes
  // (which keep the ops at or below the cut) interleave freely while the merged CSR is assembled.
  std::shared_ptr<const CsrGraph> merged;
  try {
    // The overlay's touched vertices ascend, so one cursor walks them in
    // step with the base and drops each retracted edge as it goes.
    const DeltaStore::Overlay& overlay = *snap.overlay;
    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(
        static_cast<std::size_t>(base->num_edges() + snap.num_inserts - snap.num_removes));
    std::size_t s = 0;
    for (VertexId v = 0; v < base->num_vertices(); ++v) {
      if (s == overlay.touched.size() || overlay.touched[s] != v) {
        for (VertexId u : base->neighbors(v)) edges.emplace_back(v, u);
        continue;
      }
      const auto rem_hi = static_cast<std::size_t>(overlay.remove_offsets[s + 1]);
      auto ri = static_cast<std::size_t>(overlay.remove_offsets[s]);
      for (VertexId u : base->neighbors(v)) {
        while (ri < rem_hi && overlay.removes[ri] < u) ++ri;
        if (ri < rem_hi && overlay.removes[ri] == u) {
          ++ri;  // tombstoned: dropped from the fresh CSR
          continue;
        }
        edges.emplace_back(v, u);
      }
      ++s;
    }
    for (s = 0; s < overlay.touched.size(); ++s) {
      const VertexId v = overlay.touched[s];
      for (EdgeId e = overlay.insert_offsets[s]; e < overlay.insert_offsets[s + 1]; ++e) {
        edges.emplace_back(v, overlay.inserts[static_cast<std::size_t>(e)]);
      }
    }
    // The union is duplicate-free by the ingest-time check; dedup stays
    // on as a structural belt (it is what the round-trip tests check).
    EdgeListOptions options;
    options.symmetrize = false;
    options.remove_self_loops = false;
    options.deduplicate = true;
    merged = std::make_shared<const CsrGraph>(
        build_csr(snap.num_vertices, std::move(edges), options));

    std::function<void()> hook;
    {
      std::lock_guard hook_lock(hook_mutex_);
      hook = fold_hook_;
    }
    build_end_ns = timed ? steady_ns() : 0;
    if (hook) hook();  // test seam: park the fold here, still off-lock
  } catch (...) {
    // Abandon cleanly: the buffered ops were never touched, so the next
    // snapshot reduces them as if this fold never started.
    delta_.abort_fold();
    fold_in_flight_.store(false, std::memory_order_release);
    throw;
  }

  // ---- 3. REBASE (locked, O(overlay)): re-validate the cut against
  // the store (rebase throws if the frontier moved), swap-then-truncate
  // in one exclusive section — the membership check never sees a base
  // without the merged prefix still pending — and republish.  rebase
  // also promotes fully-folded dead streamed-in ids to the free list.
  const std::int64_t rebase_begin_ns = timed ? steady_ns() : 0;
  try {
    std::lock_guard maintenance(maintenance_mutex_);
    delta_.rebase(merged, snap.epoch);
    base_max_degree_ = merged->max_degree();
    // Ops ingested after the cut are still pending and ride along as
    // the new overlay.  The install snapshot publishes everything
    // accepted during the build too; claim the marker (oldest op still
    // unpublished — a mid-build publish already credited anything it
    // made visible) before that snapshot, as always.
    const auto marker = take_pending_marker();
    install_version(merged, base_max_degree_, delta_.snapshot(/*advance_epoch=*/false), marker);
    fold_in_flight_.store(false, std::memory_order_release);
  } catch (...) {
    // A rebase-section throw (failed re-validation, allocation) must
    // not wedge the fold machinery: abandon the fold so later
    // compact() calls are not refused forever.  abort_fold is a no-op
    // when rebase already cleared the store-side guard.
    delta_.abort_fold();
    fold_in_flight_.store(false, std::memory_order_release);
    throw;
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  if (journal_ != nullptr)
    journal_->log("fold", "epoch=" + std::to_string(snap.epoch) +
                              " base_edges=" + std::to_string(merged->num_edges()) +
                              ms_field("cut_ms", cut_begin_ns, build_begin_ns) +
                              ms_field("build_ms", build_begin_ns, build_end_ns) +
                              ms_field("rebase_ms", rebase_begin_ns, steady_ns()));
  // The fold just rewrote the degree landscape the original admission
  // set was ranked by — the natural install point for the cache's
  // observed-traffic re-rank (and the moment freed slots get refilled).
  if (config_.cache_rerank) rerank_cache(*merged);
  return true;
}

void StreamingGraph::rerank_now() {
  const auto base = base_snapshot();
  rerank_cache(*base);
}

void StreamingGraph::rerank_cache(const CsrGraph& base) {
  // cache_mutex_ excludes update_feature/remove_vertex, so no store row
  // the re-admission copies from is mid-write, and the cache pointer
  // cannot be detached underneath the call.
  std::lock_guard lock(cache_mutex_);
  if (cache_ == nullptr || cache_->capacity() == 0) return;
  // Live degrees rank the cold start; a retracted entity must not
  // re-enter the cache no matter how hot its counter was.
  const std::int64_t admitted =
      cache_->rerank_by_traffic(base, [this](VertexId v) { return delta_.is_dead(v); });
  cache_reranks_.fetch_add(1, std::memory_order_relaxed);
  if (journal_ != nullptr) journal_->log("rerank", "admitted=" + std::to_string(admitted));
}

EdgeId StreamingGraph::annihilate() {
  // maintenance_mutex_ excludes compact()'s cut and rebase endpoints,
  // but NOT its off-lock build: when a fold is in flight the store
  // keeps every op stamped at or below the fold's cut, so a pair the
  // fold captured is never erased out from under its rebase.  With no
  // fold in flight every matched pair is erasable, including pairs
  // older than published snapshots — a GraphVersion owns copies of its
  // spans, and the net reduction of the surviving ops is unchanged.
  const std::int64_t begin_ns = journal_ != nullptr ? steady_ns() : 0;
  std::lock_guard maintenance(maintenance_mutex_);
  const EdgeId erased = delta_.annihilate();
  if (erased > 0) {
    annihilations_.fetch_add(1, std::memory_order_relaxed);
    if (journal_ != nullptr)
      journal_->log("annihilate", "erased_ops=" + std::to_string(erased) +
                                      ms_field("ms", begin_ns, steady_ns()));
  }
  return erased;
}

std::int64_t StreamingGraph::sweep_expired(Seconds ttl, std::int64_t max_retire) {
  if (ttl < 0.0) throw std::invalid_argument("StreamingGraph::sweep_expired: negative ttl");
  if (max_retire <= 0) return 0;
  // Stamp the cutoff once: entities touched DURING the sweep compare
  // against the same horizon, so one pass retires a deterministic set.
  const std::int64_t begin_ns = steady_ns();
  const std::int64_t horizon_ns = begin_ns - static_cast<std::int64_t>(ttl * 1e9);
  const VertexId first = dataset_->graph.num_vertices();  // dataset vertices never expire
  std::int64_t retired = 0;
  const VertexId n = num_vertices();
  for (VertexId v = first; v < n && retired < max_retire; ++v) {
    if (delta_.is_dead(v)) continue;
    if (features_->last_touch_ns(v) > horizon_ns) continue;
    // Yield to an in-flight fold; its rebase or abort clears the flag,
    // so the next pass resumes here.
    if (fold_in_flight()) break;
    if (remove_vertex(v)) ++retired;
  }
  expired_vertices_.fetch_add(retired, std::memory_order_relaxed);
  if (retired > 0 && journal_ != nullptr)
    journal_->log("ttl_sweep", "retired=" + std::to_string(retired) +
                                   ms_field("ms", begin_ns, steady_ns()));
  return retired;
}

Seconds StreamingGraph::pending_staleness() const {
  std::lock_guard lock(lag_mutex_);
  if (!pending_since_.has_value()) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - *pending_since_)
      .count();
}

StaticFeatureCache::LoadStats StreamingGraph::gather(std::span<const VertexId> nodes,
                                                     Tensor& out) const {
  std::vector<char> hit_scratch;
  return gather(nodes, out, hit_scratch);
}

StaticFeatureCache::LoadStats StreamingGraph::gather(std::span<const VertexId> nodes,
                                                     Tensor& out,
                                                     std::vector<char>& hit_scratch) const {
  StaticFeatureCache* cache;
  {
    std::lock_guard lock(cache_mutex_);
    cache = cache_;
  }
  StaticFeatureCache::LoadStats stats;
  if (cache != nullptr) {
    stats = cache->gather(nodes, out, hit_scratch);
  } else {
    features_->gather(nodes, out);
    stats.misses = static_cast<std::int64_t>(nodes.size());
    stats.host_bytes = static_cast<double>(stats.misses) * features_->row_wire_bytes();
  }
  // LRU read-path touches, batched: one pass re-stamps every gathered
  // streamed-in row so read-hot entities survive TTL sweeps.  The store
  // skips base rows (dataset vertices never expire) and short-circuits
  // to zero locking when the request has no extension rows — the common
  // static-serving case pays nothing.
  features_->touch_rows(nodes);
  return stats;
}

void StreamingGraph::attach_cache(StaticFeatureCache* cache) {
  std::lock_guard lock(cache_mutex_);
  cache_ = cache;
}

void StreamingGraph::set_fold_hook(std::function<void()> hook) {
  std::lock_guard lock(hook_mutex_);
  fold_hook_ = std::move(hook);
}

void StreamingGraph::set_publish_hook(std::function<void()> hook) {
  std::lock_guard lock(hook_mutex_);
  publish_hook_ = std::move(hook);
}

double StreamingGraph::overlay_ratio() const {
  const auto base_edges = static_cast<double>(delta_.base()->num_edges());
  if (base_edges == 0.0) return delta_.delta_ops() > 0 ? 1.0 : 0.0;
  return static_cast<double>(delta_.delta_ops()) / base_edges;
}

StreamStats StreamingGraph::stats() const {
  StreamStats s;
  s.ingested_edges = ingested_edges_.load(std::memory_order_relaxed);
  s.duplicate_edges = duplicate_edges_.load(std::memory_order_relaxed);
  s.removed_edges = removed_edges_.load(std::memory_order_relaxed);
  s.rejected_removals = rejected_removals_.load(std::memory_order_relaxed);
  s.added_vertices = added_vertices_.load(std::memory_order_relaxed);
  s.removed_vertices = removed_vertices_.load(std::memory_order_relaxed);
  s.recycled_vertices = recycled_vertices_.load(std::memory_order_relaxed);
  s.feature_updates = feature_updates_.load(std::memory_order_relaxed);
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.annihilations = annihilations_.load(std::memory_order_relaxed);
  s.annihilated_ops = static_cast<std::int64_t>(delta_.annihilated_ops());
  s.expired_vertices = expired_vertices_.load(std::memory_order_relaxed);
  s.cache_reranks = cache_reranks_.load(std::memory_order_relaxed);
  s.overlay_edges = delta_.delta_edges();
  s.tombstones = delta_.delta_removes();
  s.base_edges = delta_.base()->num_edges();
  s.dead_vertices = delta_.dead_vertices();
  s.version_id = current()->id();
  const HistogramView lag = publish_lag_.view();
  s.publish_lag_mean = lag.mean_ms() / 1e3;
  s.publish_lag_max = lag.max_ms / 1e3;
  return s;
}

std::shared_ptr<const CsrGraph> StreamingGraph::base_snapshot() const { return delta_.base(); }

std::shared_ptr<const GraphVersion> StreamingGraph::install_version(
    std::shared_ptr<const CsrGraph> base, EdgeId base_max_degree, DeltaStore::Snapshot snapshot,
    std::optional<std::chrono::steady_clock::time_point> pending_marker) {
  auto version = std::make_shared<const GraphVersion>(
      std::move(base), base_max_degree, std::move(snapshot),
      version_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  if (pending_marker.has_value()) {
    // Publish lag: delay from the oldest ingest this version satisfies
    // (the marker the caller claimed before its snapshot) to the
    // install.  An op racing the snapshot re-armed a fresh marker, so
    // it keeps driving the publisher instead of being reset away.
    publish_lag_.observe_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - *pending_marker)
            .count());
  }
  {
    std::lock_guard lock(version_mutex_);
    current_ = version;
  }
  return version;
}

void StreamingGraph::note_pending_ingest() {
  std::lock_guard lock(lag_mutex_);
  if (!pending_since_.has_value()) pending_since_ = std::chrono::steady_clock::now();
}

std::optional<std::chrono::steady_clock::time_point> StreamingGraph::take_pending_marker() {
  std::lock_guard lock(lag_mutex_);
  auto marker = pending_since_;
  pending_since_.reset();
  return marker;
}

std::string StreamStats::to_string() const {
  const auto count = [](std::int64_t n) { return format_count(static_cast<std::uint64_t>(n)); };
  std::ostringstream out;
  out << "ingested=" << count(ingested_edges) << " dup=" << count(duplicate_edges)
      << " removed=" << count(removed_edges) << " vertices+=" << count(added_vertices)
      << " vertices-=" << count(removed_vertices) << " recycled=" << count(recycled_vertices)
      << " feat_updates=" << count(feature_updates) << " publishes=" << count(publishes)
      << " compactions=" << count(compactions) << " annihilated=" << count(annihilated_ops)
      << " expired=" << count(expired_vertices) << " overlay=" << count(overlay_edges) << "+"
      << count(tombstones) << "t/" << count(base_edges)
      << " lag_mean=" << format_double(publish_lag_mean * 1e3, 3) << "ms"
      << " lag_max=" << format_double(publish_lag_max * 1e3, 3) << "ms";
  return out.str();
}

}  // namespace hyscale
