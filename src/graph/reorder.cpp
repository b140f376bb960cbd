#include "graph/reorder.hpp"

#include <algorithm>
#include <numeric>

namespace hyscale {

std::vector<VertexId> degree_order(const CsrGraph& graph) {
  std::vector<VertexId> perm(static_cast<std::size_t>(graph.num_vertices()));
  std::iota(perm.begin(), perm.end(), VertexId{0});
  std::stable_sort(perm.begin(), perm.end(), [&](VertexId a, VertexId b) {
    return graph.degree(a) > graph.degree(b);
  });
  return perm;
}

}  // namespace hyscale
