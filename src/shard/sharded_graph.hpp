// Sharded streaming serving: N hash-owned StreamingGraph shards behind
// one facade, with one shared feature plane and a consistent
// cross-shard cut.
//
// This is the repository's stand-in for the multi-node serving tier the
// paper's §VII baselines (P3, DistDGL) run — built so the cost HyScale
// avoids (cross-shard consistency of a partitioned topology) can be
// MEASURED against the same workloads instead of modeled.  It remains
// only for perfbench's churn-sharded workload.  Every vertex, dataset or
// streamed-in, is owned by shard splitmix64(seed ^ v) % num_shards;
// every shard is a full StreamingGraph (its own DeltaStore, Compactor
// and Publisher — all reused unchanged) over the FULL vertex space,
// holding every directed edge incident to a vertex it owns.
//
// The bit-identity contract (PR 3's standard) survives sharding by
// construction, not by luck:
//
//   * TOPOLOGY — shard s's base CSR keeps directed edge (a, b) iff
//     owner(a) == s or owner(b) == s, and every streamed edge op is
//     routed to BOTH endpoint owners.  Owner(v)'s shard therefore holds
//     v's COMPLETE live adjacency, element-identical to the flat
//     graph's, so a sampler that reads every vertex through its owner
//     shard draws bit-identical neighborhoods.
//   * VERTEX SPACE — vertex adds/removes are broadcast to every shard
//     (shard 0 first) under an exclusive lock, with id recycling
//     disabled (StreamingConfig::recycle_ids = false), so all shards
//     agree on ids and liveness at every instant.
//   * FEATURES — as in HyScale's single host-memory feature matrix,
//     there is ONE MutableFeatureStore, shared by every shard, and at
//     most one device cache.  Every feature operation — update, gather,
//     cache re-rank, cache attach — goes through shard 0, so the cache
//     is invalidated by every write and a gather serves exactly the row
//     the flat graph's store would, at the same wire precision.  Feature
//     updates are visible to the next gather, before any adoption.
//
// CONSISTENT CUT — queries never read shards_[s]->current() directly.
// adopt() freezes a version VECTOR (one published GraphVersion per
// shard) and installs it as an immutable ShardedCut; a shard's publish
// becomes visible to queries only once a cut containing it is adopted.
// Cut ids are monotone, so every query samples one frozen vector —
// never a torn mix of old shard A and new shard B topology mid-read.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stream/streaming_graph.hpp"

namespace hyscale {

/// Vertex -> shard assignment: one seeded hash for every id, dataset or
/// streamed-in, so every shard computes the same owner without
/// coordination or a table.  Immutable and shared between the facade
/// and every ShardedCut it publishes.
class ShardOwnerMap {
 public:
  ShardOwnerMap(int num_shards, std::uint64_t seed) : num_shards_(num_shards), seed_(seed) {}

  int owner(VertexId v) const {
    std::uint64_t h = seed_ ^ static_cast<std::uint64_t>(v);
    return static_cast<int>(splitmix64(h) % static_cast<std::uint64_t>(num_shards_));
  }
  int num_shards() const { return num_shards_; }

 private:
  int num_shards_;
  std::uint64_t seed_;
};

/// Immutable cross-shard snapshot: one published GraphVersion per shard,
/// frozen together.  All methods are const and safe for concurrent
/// readers; the hot-path accessors route each vertex to its OWNER
/// shard's version, which holds the vertex's complete live adjacency.
class ShardedCut {
 public:
  ShardedCut(std::shared_ptr<const ShardOwnerMap> owners,
             std::vector<std::shared_ptr<const GraphVersion>> versions,
             std::uint64_t cut_id);

  int num_shards() const { return owners_->num_shards(); }
  int owner(VertexId v) const { return owners_->owner(v); }
  std::uint64_t cut_id() const { return cut_id_; }

  const GraphVersion& shard_version(int shard) const {
    return *versions_[static_cast<std::size_t>(shard)];
  }
  const std::shared_ptr<const GraphVersion>& shard_version_ptr(int shard) const {
    return versions_[static_cast<std::size_t>(shard)];
  }
  std::uint64_t version_id(int shard) const {
    return versions_[static_cast<std::size_t>(shard)]->id();
  }

  /// Max over the shard versions (shards publish independently, so a
  /// vertex added between two shards' publishes exists in some versions
  /// only; GraphVersion treats out-of-range ids as degree-0 and alive,
  /// so reads through an older member stay well-defined).
  VertexId num_vertices() const { return num_vertices_; }
  /// Upper bound on the live max degree across shards — what the exact
  /// (full-neighborhood) sampler uses as its take-everything fanout.
  EdgeId max_degree() const { return max_degree_; }

  // ---- owner-routed hot path (the sampler's read surface) ----

  EdgeId degree(VertexId v) const { return version_of(v).degree(v); }
  void append_neighbors(VertexId v, std::vector<VertexId>& out) const {
    version_of(v).append_neighbors(v, out);
  }
  bool alive(VertexId v) const { return version_of(v).alive(v); }

 private:
  const GraphVersion& version_of(VertexId v) const {
    return *versions_[static_cast<std::size_t>(owners_->owner(v))];
  }

  std::shared_ptr<const ShardOwnerMap> owners_;
  std::vector<std::shared_ptr<const GraphVersion>> versions_;
  std::uint64_t cut_id_ = 0;
  VertexId num_vertices_ = 0;
  EdgeId max_degree_ = 0;
};

struct ShardedConfig {
  int num_shards = 2;
  /// Seeds the owner hash.
  std::uint64_t partition_seed = 17;
  /// Template for every per-shard StreamingGraph.  `recycle_ids` is
  /// forced off and `metric_prefix` is overwritten with "shard<i>." per
  /// shard.
  StreamingConfig stream;
};

/// Facade-level logical counters (each op counted ONCE, however many
/// shards it touched).
struct ShardedStats {
  std::int64_t ingested_edges = 0;     ///< accepted directed insertions
  std::int64_t duplicate_edges = 0;
  std::int64_t removed_edges = 0;      ///< accepted directed retractions
  std::int64_t rejected_removals = 0;
  std::int64_t added_vertices = 0;
  std::int64_t removed_vertices = 0;
  std::int64_t feature_updates = 0;
  std::int64_t cut_adoptions = 0;
  /// Always 0: the shards share one feature store, so there are no
  /// mirror rows to refresh.  Kept only because perfbench reads it.
  std::int64_t halo_refreshed_rows = 0;
  /// Always 0: no gather fetches a row from another shard's store.
  /// Kept only because perfbench reads it.
  std::int64_t cross_shard_rows = 0;
  std::uint64_t cut_id = 0;

  std::string to_string() const;
};

class ShardedStreamingGraph {
 public:
  /// Splits `dataset` by owner and builds one StreamingGraph per shard (full
  /// vertex space, owner-incident edges) over one shared feature store:
  /// `features` when given (its precision is the gather's wire
  /// precision), else a private fp32 one from dataset.features.  The
  /// dataset must outlive the facade.  Throws std::invalid_argument for
  /// num_shards < 1 or a store whose rows do not match the dataset's
  /// vertices.
  ShardedStreamingGraph(const Dataset& dataset, ShardedConfig config,
                        std::shared_ptr<MutableFeatureStore> features = nullptr);
  ~ShardedStreamingGraph();  ///< detaches the facade's callback gauges

  ShardedStreamingGraph(const ShardedStreamingGraph&) = delete;
  ShardedStreamingGraph& operator=(const ShardedStreamingGraph&) = delete;

  // ---- ingest (thread-safe; same contracts as StreamingGraph) ----

  /// Routes the edge to both endpoint owners under a per-edge stripe
  /// lock, so the two shards always agree on the edge's liveness.
  bool add_edge(VertexId u, VertexId v);
  bool remove_edge(VertexId u, VertexId v);

  /// Broadcast: every shard adds the SAME id (recycling is off, so the
  /// vertex spaces stay in lockstep); shard 0 appends the shared row.
  /// A row the store rejects throws before any shard changes.
  VertexId add_vertex(std::span<const float> features);
  /// Broadcast retirement: edges retracted on every shard; shard 0
  /// zeroes the shared row and evicts it from the device cache.
  bool remove_vertex(VertexId v);

  /// Writes the shared row through shard 0 (which invalidates the
  /// device cache).  The next gather serves it; no adoption needed.
  bool update_feature(VertexId v, std::span<const float> values);

  // ---- cuts ----

  /// Publishes every shard, then adopts.  The deterministic harness
  /// path: with ingest quiesced, the adopted cut is element-identical
  /// to a flat StreamingGraph publish of the same op sequence.
  std::shared_ptr<const ShardedCut> publish_all();

  /// Freezes the current per-shard version vector and installs it as
  /// the new current cut.  Returns the installed (or unchanged, when no
  /// shard published since) cut.  Serialized internally; safe to call
  /// from the CutAdopter thread and tests concurrently.
  std::shared_ptr<const ShardedCut> adopt();

  /// The latest adopted cut.  Never null (the constructor adopts cut 1).
  std::shared_ptr<const ShardedCut> current_cut() const;

  /// True when some shard has published a version the current cut does
  /// not contain — the CutAdopter's poll predicate.
  bool cut_stale() const;

  // ---- feature plane (every call routes through shard 0) ----

  /// Serving gather: pinned rows from the device cache, the rest from
  /// the shared store at its wire precision — the flat graph's gather.
  StaticFeatureCache::LoadStats gather(std::span<const VertexId> nodes, Tensor& out,
                                       std::vector<char>& hit_scratch) const;

  /// Attaches the one device cache (nullptr detaches).  It must be
  /// built over features().
  void attach_cache(StaticFeatureCache* cache);

  /// On-demand re-rank of the device cache (the facade analogue of
  /// StreamingGraph::rerank_now, used by the serving tier's
  /// traffic-triggered cadence).
  void rerank_now();

  // ---- accessors ----

  int num_shards() const { return static_cast<int>(shards_.size()); }
  StreamingGraph& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  const StreamingGraph& shard(int s) const { return *shards_[static_cast<std::size_t>(s)]; }
  int owner(VertexId v) const { return owners_->owner(v); }
  const Dataset& dataset() const { return *dataset_; }
  /// The one feature store every shard serves from.
  MutableFeatureStore& features() { return *features_; }
  const MutableFeatureStore& features() const { return *features_; }
  const ShardedConfig& config() const { return config_; }
  Telemetry* telemetry() const { return config_.stream.telemetry; }
  VertexId num_vertices() const { return shards_.front()->num_vertices(); }
  ShardedStats stats() const;

 private:
  void bind_telemetry();
  std::mutex& edge_stripe(VertexId u, VertexId v) const;

  const Dataset* dataset_;
  ShardedConfig config_;
  std::shared_ptr<const ShardOwnerMap> owners_;
  std::shared_ptr<MutableFeatureStore> features_;
  /// Per-shard dataset views (filtered topology only); StreamingGraph
  /// references its dataset, so these must outlive the shards
  /// (declared first).
  std::vector<Dataset> shard_views_;
  std::vector<std::unique_ptr<StreamingGraph>> shards_;

  /// Vertex adds/removes exclusive, edge ops + feature updates shared —
  /// an edge op observes both endpoint owners' dead state atomically
  /// against a concurrent broadcast retirement.
  mutable std::shared_mutex topology_mutex_;
  /// Serializes the two owner-shard calls of one edge op against other
  /// ops on the SAME edge, so the shards can never disagree on an
  /// add/remove interleave.
  static constexpr std::size_t kEdgeStripes = 64;
  mutable std::mutex edge_stripes_[kEdgeStripes];

  std::mutex adopt_mutex_;  ///< serializes adopt() bodies
  mutable std::mutex cut_mutex_;
  std::shared_ptr<const ShardedCut> current_cut_;
  std::atomic<std::uint64_t> cut_counter_{0};

  std::atomic<std::int64_t> ingested_edges_{0};
  std::atomic<std::int64_t> duplicate_edges_{0};
  std::atomic<std::int64_t> removed_edges_{0};
  std::atomic<std::int64_t> rejected_removals_{0};
  std::atomic<std::int64_t> added_vertices_{0};
  std::atomic<std::int64_t> removed_vertices_{0};
  std::atomic<std::int64_t> feature_updates_{0};
  std::atomic<std::int64_t> cut_adoptions_{0};

  // Telemetry journal; null when telemetry is off.
  EventJournal* journal_ = nullptr;
};

}  // namespace hyscale
