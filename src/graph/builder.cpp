#include "graph/builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace hyscale {

namespace {

// Below this many adjacency entries the buckets are sorted on the
// calling thread: the pool's hand-off would cost more than it saves.
constexpr EdgeId kParallelGrainEdges = EdgeId{1} << 15;

}  // namespace

CsrGraph build_csr(VertexId num_vertices,
                   std::vector<std::pair<VertexId, VertexId>> edges,
                   const EdgeListOptions& options) {
  if (num_vertices < 0) throw std::invalid_argument("build_csr: negative vertex count");
  const auto n = static_cast<std::size_t>(num_vertices);

  // Count each source's entries.  A pair contributes (u, v) and, when
  // symmetrising, (v, u); a self loop contributes nothing when removed.
  std::vector<EdgeId> offsets(n + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= num_vertices || v < 0 || v >= num_vertices)
      throw std::invalid_argument("build_csr: edge endpoint out of range");
    if (options.remove_self_loops && u == v) continue;
    ++offsets[static_cast<std::size_t>(u) + 1];
    if (options.symmetrize) ++offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];

  // Scatter every entry into its source's bucket; `ends[u]` is the fill
  // cursor of u's bucket, and after the sort the end of what it keeps.
  std::vector<VertexId> indices(static_cast<std::size_t>(offsets[n]));
  std::vector<EdgeId> ends(offsets.begin(), offsets.end() - 1);
  auto place = [&](VertexId from, VertexId to) {
    indices[static_cast<std::size_t>(ends[static_cast<std::size_t>(from)]++)] = to;
  };
  for (const auto& [u, v] : edges) {
    if (options.remove_self_loops && u == v) continue;
    place(u, v);
    if (options.symmetrize) place(v, u);
  }
  std::vector<std::pair<VertexId, VertexId>>().swap(edges);

  // Sort (and deduplicate) each bucket in place.  Chunks hold about the
  // same number of entries, not of vertices: R-MAT hubs sit at the low ids.
  auto sort_buckets = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      const auto first = indices.begin() + offsets[u];
      const auto last = indices.begin() + ends[u];
      std::sort(first, last);
      if (options.deduplicate) ends[u] = std::unique(first, last) - indices.begin();
    }
  };
  ThreadPool& pool = ThreadPool::global();
  const EdgeId total = offsets[n];
  const auto chunks = static_cast<std::size_t>(
      std::min<EdgeId>(static_cast<EdgeId>(pool.size()) * 4, total / kParallelGrainEdges));
  if (chunks < 2) {
    sort_buckets(0, n);
  } else {
    // Chunk c covers the vertices whose bucket starts in the c-th equal
    // share of the entries.
    std::vector<std::size_t> bounds(chunks + 1, n);
    bounds[0] = 0;
    for (std::size_t c = 1; c < chunks; ++c) {
      const EdgeId share = total / static_cast<EdgeId>(chunks) * static_cast<EdgeId>(c);
      bounds[c] = static_cast<std::size_t>(
          std::lower_bound(offsets.begin(), offsets.end() - 1, share) - offsets.begin());
    }
    pool.parallel_for(
        0, chunks, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t c = lo; c < hi; ++c) sort_buckets(bounds[c], bounds[c + 1]);
        },
        chunks);
  }

  // Close the gaps deduplication left, turning `offsets` into indptr.
  // Every bucket moves down (or stays), so one forward pass never
  // overwrites an entry it has yet to read.
  EdgeId write = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const EdgeId begin = offsets[u];
    offsets[u] = write;
    if (write != begin)
      std::copy(indices.begin() + begin, indices.begin() + ends[u], indices.begin() + write);
    write += ends[u] - begin;
  }
  offsets[n] = write;
  if (static_cast<std::size_t>(write) < indices.size()) {
    indices.resize(static_cast<std::size_t>(write));
    indices.shrink_to_fit();  // the graph keeps this array for its lifetime
  }
  return CsrGraph(std::move(offsets), std::move(indices));
}

}  // namespace hyscale
