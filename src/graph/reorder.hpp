// Vertex reordering utilities.
//
// The FPGA kernel (§IV-C) sorts mini-batch edges by source vertex so the
// Feature Duplicator reuses each fetched feature D_out(v) times; degree
// reordering of the *full* graph additionally improves feature-gather
// locality for the CPU trainer and the PaGraph cache model (hot vertices
// first).
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace hyscale {

/// Permutation such that perm[new_id] = old_id, ordered by descending
/// degree (stable for ties).
std::vector<VertexId> degree_order(const CsrGraph& graph);

}  // namespace hyscale
