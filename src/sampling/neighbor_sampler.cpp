#include "sampling/neighbor_sampler.hpp"

#include <algorithm>

namespace hyscale {

// The fanout/RNG discipline lives in sampling/fanout_core.hpp; pinning
// the CSR instantiation here keeps one copy of it in the library.
template class FanoutSamplerCore<CsrGraph>;

BatchStats NeighborSampler::expected_stats(std::int64_t batch_size,
                                           const std::vector<int>& fanouts, double mean_degree,
                                           std::uint64_t num_vertices) {
  const int num_layers = static_cast<int>(fanouts.size());
  BatchStats s;
  s.vertices_per_layer.assign(static_cast<std::size_t>(num_layers) + 1, 0);
  s.edges_per_layer.assign(static_cast<std::size_t>(num_layers), 0);

  // Walk top-down (layer L .. 1): frontier grows by min(fanout, degree)+self.
  double frontier = static_cast<double>(batch_size);
  s.vertices_per_layer[static_cast<std::size_t>(num_layers)] =
      static_cast<std::int64_t>(frontier);
  for (int l = num_layers - 1; l >= 0; --l) {
    const double effective_fanout =
        std::min(static_cast<double>(fanouts[static_cast<std::size_t>(l)]), mean_degree);
    const double edges = frontier * effective_fanout;
    double next = frontier * (1.0 + effective_fanout);
    next = std::min(next, static_cast<double>(num_vertices));
    s.edges_per_layer[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(edges);
    s.vertices_per_layer[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(next);
    frontier = next;
  }
  return s;
}

MiniBatch sample_full(const CsrGraph& graph, const std::vector<VertexId>& seeds, int num_layers) {
  return sample_full_via<NeighborSampler>(graph, seeds, num_layers, "sample_full");
}

}  // namespace hyscale
