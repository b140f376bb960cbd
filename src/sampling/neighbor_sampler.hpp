// GraphSAGE uniform neighbor sampler (Hamilton et al.), the mini-batch
// producer the paper evaluates with (fanout (25, 10), batch 1024).
//
// Sampling proceeds top-down from the seed vertices: for layer l = L..1
// each frontier vertex draws up to fanout[l-1] distinct neighbors without
// replacement.  Destination vertices are kept as the prefix of each
// block's src list so self-features are available to SAGE's concat and
// GCN's self-loop without extra gathers.  The draws themselves are
// FanoutSamplerCore's (sampling/fanout_core.hpp) over the static CSR —
// the same code the streaming and sharded samplers run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr.hpp"
#include "sampling/fanout_core.hpp"
#include "sampling/minibatch.hpp"

namespace hyscale {

class NeighborSampler : public FanoutSamplerCore<CsrGraph> {
 public:
  /// `fanouts` are ordered from the layer closest to the input to the
  /// output layer, matching the paper's "(25, 10)" notation.  `graph`
  /// must outlive the sampler.
  NeighborSampler(const CsrGraph& graph, std::vector<int> fanouts, std::uint64_t seed)
      : NeighborSampler(borrow_view(graph), std::move(fanouts), seed) {}
  NeighborSampler(std::shared_ptr<const CsrGraph> graph, std::vector<int> fanouts,
                  std::uint64_t seed)
      : FanoutSamplerCore(std::move(graph), std::move(fanouts), seed,
                          {"NeighborSampler", "set_graph", "graph"}) {}

  /// Expected per-layer frontier growth for the performance model: with
  /// fanout k and batch b the next frontier has <= b * (k + 1) vertices;
  /// `expected_stats` applies the paper's closed-form upper bound, capped
  /// by the dataset's vertex count.
  static BatchStats expected_stats(std::int64_t batch_size, const std::vector<int>& fanouts,
                                   double mean_degree, std::uint64_t num_vertices);
};

/// Full-neighborhood sampler (no fanout cap) — the exact computation
/// graph; used by equivalence tests against whole-graph propagation.
MiniBatch sample_full(const CsrGraph& graph, const std::vector<VertexId>& seeds, int num_layers);

}  // namespace hyscale
