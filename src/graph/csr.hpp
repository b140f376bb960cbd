// Compressed Sparse Row graph — the in-memory graph topology G(V, E).
//
// The paper stores the full input graph (topology + features) in CPU
// memory (§III-B) because large-scale graphs such as MAG240M exceed any
// device memory.  CSR gives O(1) access to a vertex's neighbor list,
// which is what both the Neighbor Sampler and the GCN normalisation
// (degree lookups) need.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hyscale {

using VertexId = std::int64_t;
using EdgeId = std::int64_t;

/// Immutable CSR adjacency.  `indptr` has num_vertices()+1 entries;
/// the neighbors of v are indices[indptr[v] .. indptr[v+1]).
class CsrGraph {
 public:
  CsrGraph() = default;
  CsrGraph(std::vector<EdgeId> indptr, std::vector<VertexId> indices);

  VertexId num_vertices() const {
    return indptr_.empty() ? 0 : static_cast<VertexId>(indptr_.size() - 1);
  }
  EdgeId num_edges() const { return indptr_.empty() ? 0 : indptr_.back(); }

  EdgeId degree(VertexId v) const { return indptr_[v + 1] - indptr_[v]; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {indices_.data() + indptr_[v], static_cast<std::size_t>(degree(v))};
  }

  /// Appends v's neighbors to `out` — the adjacency read of
  /// FanoutSamplerCore's view interface.
  void append_neighbors(VertexId v, std::vector<VertexId>& out) const {
    const auto adjacency = neighbors(v);
    out.insert(out.end(), adjacency.begin(), adjacency.end());
  }

  const std::vector<EdgeId>& indptr() const { return indptr_; }
  const std::vector<VertexId>& indices() const { return indices_; }

  /// Highest out-degree in the graph (0 for an empty graph).
  EdgeId max_degree() const;

  /// Mean out-degree (0 for an empty graph).
  double mean_degree() const;

  /// Structural sanity: indptr monotone, indices in range.  Used by tests
  /// and by the binary loader.
  bool validate() const;

 private:
  std::vector<EdgeId> indptr_;
  std::vector<VertexId> indices_;
};

}  // namespace hyscale
