#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyscale {

CsrGraph::CsrGraph(std::vector<EdgeId> indptr, std::vector<VertexId> indices)
    : indptr_(std::move(indptr)), indices_(std::move(indices)) {
  if (indptr_.empty()) throw std::invalid_argument("CsrGraph: indptr must have >= 1 entry");
  if (indptr_.front() != 0) throw std::invalid_argument("CsrGraph: indptr[0] must be 0");
  if (indptr_.back() != static_cast<EdgeId>(indices_.size()))
    throw std::invalid_argument("CsrGraph: indptr.back() must equal indices.size()");
}

EdgeId CsrGraph::max_degree() const {
  EdgeId best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

double CsrGraph::mean_degree() const {
  const VertexId n = num_vertices();
  return n == 0 ? 0.0 : static_cast<double>(num_edges()) / static_cast<double>(n);
}

bool CsrGraph::validate() const {
  if (indptr_.empty()) return false;
  if (indptr_.front() != 0) return false;
  if (indptr_.back() != static_cast<EdgeId>(indices_.size())) return false;
  for (std::size_t i = 1; i < indptr_.size(); ++i) {
    if (indptr_[i] < indptr_[i - 1]) return false;
  }
  const VertexId n = num_vertices();
  for (VertexId idx : indices_) {
    if (idx < 0 || idx >= n) return false;
  }
  return true;
}

}  // namespace hyscale
