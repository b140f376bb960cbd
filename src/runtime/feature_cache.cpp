#include "runtime/feature_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/reorder.hpp"

namespace hyscale {

StaticFeatureCache::StaticFeatureCache(const CsrGraph& graph, const MutableFeatureStore& store,
                                       std::int64_t capacity_rows)
    : store_(store) {
  if (store.base_rows() != graph.num_vertices())
    throw std::invalid_argument("StaticFeatureCache: features/graph size mismatch");
  if (capacity_rows < 0)
    throw std::invalid_argument("StaticFeatureCache: negative capacity");
  capacity_ = std::min<std::int64_t>(capacity_rows, graph.num_vertices());
  slot_of_.assign(static_cast<std::size_t>(graph.num_vertices()), -1);
  access_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(graph.num_vertices()));
  for (std::int64_t v = 0; v < graph.num_vertices(); ++v)
    access_[static_cast<std::size_t>(v)].store(0, std::memory_order_relaxed);
  device_rows_.resize(static_cast<std::size_t>(capacity_) * store_.record_bytes());
  // Degree-ordered: PaGraph's "computation-aware" policy caches the
  // vertices most likely to appear in sampled neighborhoods.  rerank()
  // later folds observed traffic into this initial guess.
  const std::vector<VertexId> order = degree_order(graph);
  pinned_.reserve(static_cast<std::size_t>(capacity_));
  for (std::int64_t i = 0; i < capacity_; ++i) {
    const VertexId v = order[static_cast<std::size_t>(i)];
    slot_of_[static_cast<std::size_t>(v)] = i;
    pinned_.push_back(v);
    fill_slot_unlocked(i, v);
  }
}

StaticFeatureCache::LoadStats StaticFeatureCache::gather(std::span<const VertexId> nodes,
                                                         Tensor& out,
                                                         std::vector<char>& hit_scratch) {
  const auto total = static_cast<std::int64_t>(nodes.size());
  if (out.rows() != total || out.cols() != store_.cols()) out.resize(total, store_.cols());
  hit_scratch.assign(nodes.size(), 0);
  LoadStats stats;
  stats.hits = copy_cached_rows(nodes, hit_scratch, out);
  store_.gather(nodes, out, &hit_scratch);
  stats.misses = total - stats.hits;
  // One row format on both sides, so hits and misses move the same
  // bytes per row.
  const double row_bytes = store_.row_wire_bytes();
  stats.device_bytes = static_cast<double>(stats.hits) * row_bytes;
  stats.host_bytes = static_cast<double>(stats.misses) * row_bytes;
  account(stats);
  return stats;
}

std::int64_t StaticFeatureCache::copy_cached_rows(std::span<const VertexId> nodes,
                                                  std::vector<char>& hit, Tensor& out) const {
  std::int64_t hits = 0;
  std::shared_lock rows(rows_mutex_);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const VertexId v = nodes[i];
    if (v < 0 || static_cast<std::size_t>(v) >= slot_of_.size()) continue;
    bump_access(v);
    const std::int64_t slot = slot_of_[static_cast<std::size_t>(v)];
    if (slot < 0) continue;
    store_.decode(slot_record(slot), out.row(static_cast<std::int64_t>(i)).data());
    hit[i] = 1;
    ++hits;
  }
  return hits;
}

std::int64_t StaticFeatureCache::invalidate(std::span<const VertexId> ids) {
  std::int64_t refreshed = 0;
  {
    std::unique_lock rows(rows_mutex_);
    for (VertexId v : ids) {
      if (v < 0 || static_cast<std::size_t>(v) >= slot_of_.size()) continue;
      const std::int64_t slot = slot_of_[static_cast<std::size_t>(v)];
      if (slot < 0) continue;
      fill_slot_unlocked(slot, v);
      ++refreshed;
    }
  }
  // A call that refreshed nothing (no pinned rows among `ids`) leaves
  // the freshness window intact — resetting it on no-ops would blank
  // the since_invalidate() signal under update streams that mostly
  // touch unpinned vertices.
  if (refreshed > 0) {
    std::lock_guard totals(totals_mutex_);
    ++invalidations_;
    invalidated_rows_ += refreshed;
    since_invalidate_ = {};
  }
  return refreshed;
}

std::int64_t StaticFeatureCache::evict(std::span<const VertexId> ids) {
  std::int64_t evicted = 0;
  {
    std::unique_lock rows(rows_mutex_);
    for (VertexId v : ids) {
      if (v < 0 || static_cast<std::size_t>(v) >= slot_of_.size()) continue;
      const std::int64_t slot = slot_of_[static_cast<std::size_t>(v)];
      if (slot < 0) continue;
      slot_of_[static_cast<std::size_t>(v)] = -1;
      pinned_[static_cast<std::size_t>(slot)] = -1;
      zero_slot_unlocked(slot);
      ++evicted;
    }
  }
  if (evicted > 0) {
    std::lock_guard totals(totals_mutex_);
    evictions_ += evicted;
  }
  return evicted;
}

std::int64_t StaticFeatureCache::rerank(std::span<const VertexId> hot) {
  std::int64_t admitted = 0;
  std::int64_t dropped = 0;
  {
    std::unique_lock rows(rows_mutex_);
    // Desired membership: the first capacity() distinct in-range ids.
    std::vector<char> want(slot_of_.size(), 0);
    std::vector<VertexId> to_admit;
    std::int64_t taken = 0;
    for (const VertexId v : hot) {
      if (taken >= capacity_) break;
      if (v < 0 || static_cast<std::size_t>(v) >= slot_of_.size()) continue;
      char& flag = want[static_cast<std::size_t>(v)];
      if (flag != 0) continue;
      flag = 1;
      ++taken;
      if (slot_of_[static_cast<std::size_t>(v)] < 0) to_admit.push_back(v);
    }
    // Drop pinned rows that fell out of the hot set; collect every free
    // slot — including the ones evict() freed earlier and never
    // re-admitted (the capacity leak this operation exists to fix).
    std::vector<std::int64_t> free_slots;
    for (std::int64_t slot = 0; slot < capacity_; ++slot) {
      const VertexId v = pinned_[static_cast<std::size_t>(slot)];
      if (v < 0) {
        free_slots.push_back(slot);
        continue;
      }
      if (want[static_cast<std::size_t>(v)] != 0) continue;  // keeps its slot, no copy
      slot_of_[static_cast<std::size_t>(v)] = -1;
      pinned_[static_cast<std::size_t>(slot)] = -1;
      zero_slot_unlocked(slot);
      free_slots.push_back(slot);
      ++dropped;
    }
    for (const VertexId v : to_admit) {
      if (free_slots.empty()) break;
      const std::int64_t slot = free_slots.back();
      free_slots.pop_back();
      slot_of_[static_cast<std::size_t>(v)] = slot;
      pinned_[static_cast<std::size_t>(slot)] = v;
      fill_slot_unlocked(slot, v);
      ++admitted;
    }
    // Decay: halve the access counters so the next rerank is dominated
    // by the traffic observed AFTER this one (exponential forgetting).
    for (std::size_t v = 0; v < slot_of_.size(); ++v) {
      const std::uint64_t count = access_[v].load(std::memory_order_relaxed);
      if (count != 0) access_[v].store(count / 2, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard totals(totals_mutex_);
    ++reranks_;
    readmitted_rows_ += admitted;
    rerank_evicted_rows_ += dropped;
  }
  return admitted;
}

std::int64_t StaticFeatureCache::rerank_by_traffic(
    const CsrGraph& graph, const std::function<bool(VertexId)>& excluded) {
  if (capacity_ == 0) return 0;
  // Each counter is read once: serving workers keep bumping them, and a
  // comparator over live counters would not be a strict weak order.
  struct Candidate {
    std::uint64_t traffic;
    EdgeId degree;
    VertexId v;
  };
  const VertexId limit = std::min<VertexId>(trackable_rows(), graph.num_vertices());
  std::vector<Candidate> candidates;
  candidates.reserve(static_cast<std::size_t>(std::max<VertexId>(limit, 0)));
  for (VertexId v = 0; v < limit; ++v) {
    if (excluded && excluded(v)) continue;
    candidates.push_back({access_count(v), graph.degree(v), v});
  }
  const auto top =
      std::min<std::size_t>(static_cast<std::size_t>(capacity_), candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + static_cast<std::ptrdiff_t>(top),
                    candidates.end(), [](const Candidate& a, const Candidate& b) {
                      if (a.traffic != b.traffic) return a.traffic > b.traffic;
                      if (a.degree != b.degree) return a.degree > b.degree;
                      return a.v < b.v;
                    });
  std::vector<VertexId> hot(top);
  for (std::size_t i = 0; i < top; ++i) hot[i] = candidates[i].v;
  return rerank(hot);
}

void StaticFeatureCache::account(const LoadStats& stats) {
  std::lock_guard totals(totals_mutex_);
  totals_.hits += stats.hits;
  totals_.misses += stats.misses;
  totals_.device_bytes += stats.device_bytes;
  totals_.host_bytes += stats.host_bytes;
  since_invalidate_.hits += stats.hits;
  since_invalidate_.misses += stats.misses;
  since_invalidate_.device_bytes += stats.device_bytes;
  since_invalidate_.host_bytes += stats.host_bytes;
}

}  // namespace hyscale
