// Edge-list -> CSR construction with the cleanup passes every real graph
// pipeline needs: sorting, de-duplication, self-loop removal and
// symmetrisation (OGB node-property graphs are undirected).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace hyscale {

struct EdgeListOptions {
  bool symmetrize = true;      ///< add (v,u) for every (u,v)
  bool remove_self_loops = true;
  bool deduplicate = true;
};

/// Builds a CSR graph over `num_vertices` vertices from an edge list.
/// Edges referencing out-of-range vertices throw std::invalid_argument.
///
/// The output is exactly what sorting every (u, v) pair and, when
/// deduplicating, dropping repeats would give: each neighbor list is
/// ascending.  The cost is O(V + E) plus a sort of each neighbor list on
/// its own: a counting pass sizes every source's bucket, a scatter fills
/// them, and the buckets are sorted in chunks of equal edge count on
/// ThreadPool::global().  Because it blocks on that pool, never call it
/// from inside a task running on the global pool.
CsrGraph build_csr(VertexId num_vertices,
                   std::vector<std::pair<VertexId, VertexId>> edges,
                   const EdgeListOptions& options = {});

}  // namespace hyscale
