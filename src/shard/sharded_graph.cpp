#include "shard/sharded_graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hyscale {

ShardedCut::ShardedCut(std::shared_ptr<const ShardOwnerMap> owners,
                       std::vector<std::shared_ptr<const GraphVersion>> versions,
                       std::uint64_t cut_id)
    : owners_(std::move(owners)), versions_(std::move(versions)), cut_id_(cut_id) {
  if (!owners_) throw std::invalid_argument("ShardedCut: null owner map");
  if (versions_.size() != static_cast<std::size_t>(owners_->num_shards()))
    throw std::invalid_argument("ShardedCut: one version per shard required");
  for (const auto& version : versions_) {
    if (!version) throw std::invalid_argument("ShardedCut: null shard version");
    num_vertices_ = std::max(num_vertices_, version->num_vertices());
    max_degree_ = std::max(max_degree_, version->max_degree());
  }
}

namespace {

/// Shard s's base adjacency: every directed edge (v, u) with
/// owner(v) == s or owner(u) == s, in the dataset's (sorted) order —
/// so an owned vertex's rows are element-identical to the flat CSR's.
CsrGraph filter_owner_incident(const CsrGraph& graph, const ShardOwnerMap& owners, int shard) {
  const VertexId n = graph.num_vertices();
  std::vector<EdgeId> indptr;
  indptr.reserve(static_cast<std::size_t>(n) + 1);
  indptr.push_back(0);
  std::vector<VertexId> indices;
  for (VertexId v = 0; v < n; ++v) {
    const bool owned = owners.owner(v) == shard;
    for (VertexId u : graph.neighbors(v)) {
      if (owned || owners.owner(u) == shard) indices.push_back(u);
    }
    indptr.push_back(static_cast<EdgeId>(indices.size()));
  }
  return CsrGraph(std::move(indptr), std::move(indices));
}

}  // namespace

ShardedStreamingGraph::ShardedStreamingGraph(const Dataset& dataset, ShardedConfig config,
                                             std::shared_ptr<MutableFeatureStore> features)
    : dataset_(&dataset), config_(std::move(config)) {
  if (config_.num_shards < 1)
    throw std::invalid_argument("ShardedStreamingGraph: num_shards must be >= 1");

  owners_ = std::make_shared<const ShardOwnerMap>(config_.num_shards, config_.partition_seed);

  // One feature store for every shard: views carry only the filtered
  // topology.
  features_ = features != nullptr ? std::move(features)
                                  : std::make_shared<MutableFeatureStore>(dataset.features);
  shard_views_.reserve(static_cast<std::size_t>(config_.num_shards));
  shards_.reserve(static_cast<std::size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    Dataset& view = shard_views_.emplace_back();
    view.info = dataset.info;
    view.info.name += "/shard" + std::to_string(s);
    view.graph = filter_owner_incident(dataset.graph, *owners_, s);
    StreamingConfig shard_config = config_.stream;
    shard_config.recycle_ids = false;  // lockstep vertex spaces, see header
    shard_config.metric_prefix = "shard" + std::to_string(s) + ".";
    shards_.push_back(std::make_unique<StreamingGraph>(view, shard_config, features_));
  }

  bind_telemetry();
  adopt();  // cut 1: the construction-time version vector
}

ShardedStreamingGraph::~ShardedStreamingGraph() {
  if (config_.stream.telemetry != nullptr) config_.stream.telemetry->registry().detach(this);
}

void ShardedStreamingGraph::bind_telemetry() {
  Telemetry* telemetry = config_.stream.telemetry;
  if (telemetry == nullptr) return;
  auto& registry = telemetry->registry();
  journal_ = &telemetry->journal();
  // Every count is the facade's own atomic, read at snapshot time.
  const auto count = [&](const char* name, const std::atomic<std::int64_t>& counter) {
    register_count(registry, name, this, counter);
  };
  count("sharded.cut_adoptions", cut_adoptions_);
  registry.register_callback("sharded.num_shards", this,
                            [n = static_cast<double>(num_shards())] { return n; });
  registry.register_callback("sharded.cut_id", this, [this] {
    const auto cut = current_cut();
    return cut == nullptr ? 0.0 : static_cast<double>(cut->cut_id());
  });
  // Logical op counts: each op counted ONCE regardless of how many
  // shards applied it — the per-shard stream.* counts double-book
  // cross-shard edges, so record builders must read these instead.
  count("sharded.ingested_edges", ingested_edges_);
  count("sharded.duplicate_edges", duplicate_edges_);
  count("sharded.removed_edges", removed_edges_);
  count("sharded.rejected_removals", rejected_removals_);
  count("sharded.added_vertices", added_vertices_);
  count("sharded.removed_vertices", removed_vertices_);
  count("sharded.feature_updates", feature_updates_);
}

std::mutex& ShardedStreamingGraph::edge_stripe(VertexId u, VertexId v) const {
  const VertexId lo = u < v ? u : v;
  const VertexId hi = u < v ? v : u;
  std::uint64_t h = (static_cast<std::uint64_t>(lo) << 21) ^ static_cast<std::uint64_t>(hi);
  return edge_stripes_[splitmix64(h) % kEdgeStripes];
}

bool ShardedStreamingGraph::add_edge(VertexId u, VertexId v) {
  std::shared_lock topology(topology_mutex_);
  std::lock_guard stripe(edge_stripe(u, v));
  const int su = owners_->owner(u);
  const int sv = owners_->owner(v);
  const bool accepted = shards_[static_cast<std::size_t>(su)]->add_edge(u, v);
  if (sv != su) {
    // Both owners saw every prior op on {u, v} (this stripe serializes
    // them) and share the dead-vertex state (broadcast), so the second
    // owner's verdict always matches the first.
    shards_[static_cast<std::size_t>(sv)]->add_edge(u, v);
  }
  if (accepted) {
    ingested_edges_.fetch_add(2, std::memory_order_relaxed);
  } else {
    duplicate_edges_.fetch_add(1, std::memory_order_relaxed);
  }
  return accepted;
}

bool ShardedStreamingGraph::remove_edge(VertexId u, VertexId v) {
  std::shared_lock topology(topology_mutex_);
  std::lock_guard stripe(edge_stripe(u, v));
  const int su = owners_->owner(u);
  const int sv = owners_->owner(v);
  const bool accepted = shards_[static_cast<std::size_t>(su)]->remove_edge(u, v);
  if (sv != su) shards_[static_cast<std::size_t>(sv)]->remove_edge(u, v);
  if (accepted) {
    removed_edges_.fetch_add(2, std::memory_order_relaxed);
  } else {
    rejected_removals_.fetch_add(1, std::memory_order_relaxed);
  }
  return accepted;
}

VertexId ShardedStreamingGraph::add_vertex(std::span<const float> features) {
  features_->validate_row(features);  // before the broadcast changes any shard
  std::unique_lock topology(topology_mutex_);
  VertexId id = -1;
  for (auto& shard : shards_) {
    const VertexId got = shard->add_vertex(features);
    if (id == -1) {
      id = got;
    } else if (got != id) {
      // Unreachable while recycling is off and every add/remove is
      // broadcast; a divergence here would silently corrupt routing.
      throw std::logic_error("ShardedStreamingGraph: shard vertex spaces diverged");
    }
  }
  added_vertices_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

bool ShardedStreamingGraph::remove_vertex(VertexId v) {
  std::unique_lock topology(topology_mutex_);
  // The OWNER shard holds v's complete adjacency, so its removed-edge
  // delta over the broadcast is the logical count of directed edges
  // this retirement retracted (the other shards drop subsets of the
  // same edges — counting them too would double-book).
  const int o = owners_->owner(v);
  const std::int64_t owner_removed_before =
      shards_[static_cast<std::size_t>(o)]->stats().removed_edges;
  bool removed = false;
  bool first = true;
  for (auto& shard : shards_) {
    const bool got = shard->remove_vertex(v);
    if (first) {
      removed = got;
      first = false;
    }
  }
  if (removed) {
    removed_vertices_.fetch_add(1, std::memory_order_relaxed);
    removed_edges_.fetch_add(
        shards_[static_cast<std::size_t>(o)]->stats().removed_edges - owner_removed_before,
        std::memory_order_relaxed);
  }
  return removed;
}

bool ShardedStreamingGraph::update_feature(VertexId v, std::span<const float> values) {
  std::shared_lock topology(topology_mutex_);
  const bool accepted = shards_.front()->update_feature(v, values);
  if (accepted) feature_updates_.fetch_add(1, std::memory_order_relaxed);
  return accepted;
}

std::shared_ptr<const ShardedCut> ShardedStreamingGraph::publish_all() {
  for (auto& shard : shards_) shard->publish();
  return adopt();
}

std::shared_ptr<const ShardedCut> ShardedStreamingGraph::adopt() {
  std::lock_guard serialize(adopt_mutex_);

  std::vector<std::shared_ptr<const GraphVersion>> versions;
  versions.reserve(shards_.size());
  for (const auto& shard : shards_) versions.push_back(shard->current());

  {
    std::lock_guard cut_lock(cut_mutex_);
    if (current_cut_ != nullptr) {
      bool unchanged = true;
      for (int s = 0; s < num_shards(); ++s) {
        if (current_cut_->shard_version_ptr(s) != versions[static_cast<std::size_t>(s)]) {
          unchanged = false;
          break;
        }
      }
      if (unchanged) return current_cut_;
    }
  }

  const auto cut = std::make_shared<const ShardedCut>(
      owners_, std::move(versions), cut_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  {
    std::lock_guard cut_lock(cut_mutex_);
    current_cut_ = cut;
  }
  cut_adoptions_.fetch_add(1, std::memory_order_relaxed);
  if (journal_ != nullptr) journal_->log("adopt", "cut=" + std::to_string(cut->cut_id()));
  return cut;
}

std::shared_ptr<const ShardedCut> ShardedStreamingGraph::current_cut() const {
  std::lock_guard cut_lock(cut_mutex_);
  return current_cut_;
}

bool ShardedStreamingGraph::cut_stale() const {
  const auto cut = current_cut();
  for (int s = 0; s < num_shards(); ++s) {
    if (cut->shard_version_ptr(s) != shards_[static_cast<std::size_t>(s)]->current())
      return true;
  }
  return false;
}

StaticFeatureCache::LoadStats ShardedStreamingGraph::gather(
    std::span<const VertexId> nodes, Tensor& out, std::vector<char>& hit_scratch) const {
  return shards_.front()->gather(nodes, out, hit_scratch);
}

void ShardedStreamingGraph::attach_cache(StaticFeatureCache* cache) {
  shards_.front()->attach_cache(cache);
}

void ShardedStreamingGraph::rerank_now() { shards_.front()->rerank_now(); }

ShardedStats ShardedStreamingGraph::stats() const {
  ShardedStats stats;
  stats.ingested_edges = ingested_edges_.load(std::memory_order_relaxed);
  stats.duplicate_edges = duplicate_edges_.load(std::memory_order_relaxed);
  stats.removed_edges = removed_edges_.load(std::memory_order_relaxed);
  stats.rejected_removals = rejected_removals_.load(std::memory_order_relaxed);
  stats.added_vertices = added_vertices_.load(std::memory_order_relaxed);
  stats.removed_vertices = removed_vertices_.load(std::memory_order_relaxed);
  stats.feature_updates = feature_updates_.load(std::memory_order_relaxed);
  stats.cut_adoptions = cut_adoptions_.load(std::memory_order_relaxed);
  const auto cut = current_cut();
  stats.cut_id = cut == nullptr ? 0 : cut->cut_id();
  return stats;
}

std::string ShardedStats::to_string() const {
  std::ostringstream out;
  out << "cut=" << cut_id << " adoptions=" << cut_adoptions
      << " edges(in=" << ingested_edges << " dup=" << duplicate_edges
      << " rm=" << removed_edges << " rej=" << rejected_removals << ")"
      << " vertices(add=" << added_vertices << " rm=" << removed_vertices << ")"
      << " feature_updates=" << feature_updates;
  return out.str();
}

}  // namespace hyscale
