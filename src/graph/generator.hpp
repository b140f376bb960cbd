// Synthetic graph generators.
//
// The paper evaluates on OGB datasets (ogbn-products, ogbn-papers100M,
// MAG240M-homo) which are not shipped with this repository; we substitute
// deterministic synthetic graphs with matching structural character:
//   * RMAT / Kronecker (a,b,c,d) produces the skewed power-law degree
//     distribution that stresses neighbor sampling and feature gather the
//     same way web/citation graphs do (Graph500 uses the same model);
//   * a planted-partition (SBM) generator gives label-correlated
//     community structure so GNN convergence tests have real signal.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace hyscale {

struct RmatParams {
  int scale = 16;              ///< 2^scale vertices
  double edge_factor = 16.0;   ///< directed edges before cleanup = edge_factor * V
  double a = 0.57, b = 0.19, c = 0.19;  ///< Graph500 defaults (d = 1-a-b-c)
  std::uint64_t seed = 1;
  bool symmetrize = true;
};

/// The raw RMAT edge list, before symmetrisation and cleanup: one
/// (u, v) per requested edge, in draw order.
std::vector<std::pair<VertexId, VertexId>> rmat_edge_list(const RmatParams& params);

/// Deterministic RMAT generator: build_csr over rmat_edge_list.  Degree
/// distribution is heavy-tailed.
CsrGraph generate_rmat(const RmatParams& params);

struct SbmParams {
  VertexId vertices_per_block = 256;
  int num_blocks = 4;
  double p_intra = 0.08;   ///< edge probability inside a block
  double p_inter = 0.002;  ///< edge probability across blocks
  std::uint64_t seed = 7;
};

/// Stochastic block model with `num_blocks` planted communities.
/// Block of vertex v is v / vertices_per_block — used as its class label
/// by the dataset layer.
CsrGraph generate_sbm(const SbmParams& params);

}  // namespace hyscale
