#include "graph/generator.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/builder.hpp"

namespace hyscale {

namespace {

/// The smallest integer k0 with k < k0 exactly when k * 2^-53 < t, for
/// every 53-bit k (t * 2^53 is exact: scaling by a power of two).
std::uint64_t rmat_threshold(double t) {
  constexpr double kOne = 0x1.0p53;
  if (!(t > 0.0)) return 0;  // no k satisfies k < t (NaN included)
  if (t >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(t * kOne));
}

}  // namespace

std::vector<std::pair<VertexId, VertexId>> rmat_edge_list(const RmatParams& params) {
  if (params.scale < 1 || params.scale > 30)
    throw std::invalid_argument("generate_rmat: scale out of range [1,30]");
  const double d = 1.0 - params.a - params.b - params.c;
  if (d < 0.0) throw std::invalid_argument("generate_rmat: a+b+c must be <= 1");

  const VertexId n = VertexId{1} << params.scale;
  const auto target = static_cast<std::size_t>(params.edge_factor * static_cast<double>(n));
  Xoshiro256 rng(params.seed);

  // Each level picks a quadrant from one uniform r = k * 2^-53, with k the
  // top 53 bits of a draw.  r < t holds exactly when k < threshold(t), so
  // the quadrant walk compares integers and never branches on r.
  const std::uint64_t t1 = rmat_threshold(params.a);
  const std::uint64_t t2 = rmat_threshold(params.a + params.b);
  const std::uint64_t t3 = rmat_threshold(params.a + params.b + params.c);

  std::vector<std::pair<VertexId, VertexId>> edges(target);
  for (auto& [u, v] : edges) {
    VertexId su = 0, sv = 0;
    for (int level = 0; level < params.scale; ++level) {
      const std::uint64_t k = rng() >> 11;
      // r < a: no bit; r < a+b: v; r < a+b+c: u; otherwise both.
      const bool past1 = k >= t1, past2 = k >= t2, past3 = k >= t3;
      su = (su << 1) | static_cast<VertexId>(past1 & past2);
      sv = (sv << 1) | static_cast<VertexId>(past1 & (!past2 | past3));
    }
    u = su;
    v = sv;
  }
  return edges;
}

CsrGraph generate_rmat(const RmatParams& params) {
  auto edges = rmat_edge_list(params);  // validates params.scale
  EdgeListOptions options;
  options.symmetrize = params.symmetrize;
  return build_csr(VertexId{1} << params.scale, std::move(edges), options);
}

CsrGraph generate_sbm(const SbmParams& params) {
  if (params.vertices_per_block <= 0 || params.num_blocks <= 0)
    throw std::invalid_argument("generate_sbm: block sizes must be positive");
  const VertexId n = params.vertices_per_block * params.num_blocks;
  Xoshiro256 rng(params.seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  // Expected edge count for reservation.
  const double per_block = 0.5 * static_cast<double>(params.vertices_per_block) *
                           static_cast<double>(params.vertices_per_block) * params.p_intra;
  edges.reserve(static_cast<std::size_t>(per_block * params.num_blocks * 1.5));

  for (VertexId u = 0; u < n; ++u) {
    const VertexId block_u = u / params.vertices_per_block;
    for (VertexId v = u + 1; v < n; ++v) {
      const VertexId block_v = v / params.vertices_per_block;
      const double p = (block_u == block_v) ? params.p_intra : params.p_inter;
      if (rng.uniform() < p) edges.emplace_back(u, v);
    }
  }
  return build_csr(n, std::move(edges));
}

}  // namespace hyscale
