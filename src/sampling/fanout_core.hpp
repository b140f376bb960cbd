// The one fanout/RNG sampling core behind every GraphSAGE sampler.
//
// NeighborSampler (static CSR), OverlaySampler (stream/) and
// ShardedSampler (shard/) promise the SAME bit-identity contract: over
// a logical graph state, the produced MiniBatch is equal edge for edge
// and RNG draw for RNG draw whichever view it was sampled from.  That
// discipline — dst-prefix layout, partial Fisher-Yates over the view's
// live adjacency, one Xoshiro256(splitmix64(stream)) per layer with
// ++stream between layers, true live degrees for the GCN normalisation
// — lives here once, templated on the snapshot view type (CsrGraph,
// GraphVersion or ShardedCut); the typed samplers are thin wrappers
// that keep their public names and error messages.
//
// The view type must provide: num_vertices(), degree(v), max_degree(),
// and append_neighbors(v, out) yielding the live adjacency in the same
// element order a rebuilt CSR would store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sampling/minibatch.hpp"

namespace hyscale {

/// Naming bundle so each typed wrapper's exceptions keep its own class
/// name and view noun ("NeighborSampler" / "graph", "OverlaySampler" /
/// "version", "ShardedSampler" / "cut") without duplicating the core.
struct FanoutSamplerNames {
  const char* sampler;  ///< e.g. "OverlaySampler"
  const char* setter;   ///< e.g. "set_version"
  const char* noun;     ///< e.g. "version"
};

template <class View>
class FanoutSamplerCore {
 public:
  /// `fanouts` ordered input-layer first, matching the paper's "(25, 10)".
  FanoutSamplerCore(std::shared_ptr<const View> view, std::vector<int> fanouts,
                    std::uint64_t seed, FanoutSamplerNames names)
      : view_(std::move(view)), fanouts_(std::move(fanouts)), stream_(seed), names_(names) {
    if (!view_)
      throw std::invalid_argument(std::string(names_.sampler) + ": null " + names_.noun);
    if (fanouts_.empty())
      throw std::invalid_argument(std::string(names_.sampler) + ": fanouts empty");
    for (int f : fanouts_) {
      if (f <= 0)
        throw std::invalid_argument(std::string(names_.sampler) +
                                    ": fanouts must be positive");
    }
    local_of_.assign(static_cast<std::size_t>(view_->num_vertices()), 0);
  }

  /// Samples one mini-batch for the given seed vertices against the
  /// current view.
  MiniBatch sample(const std::vector<VertexId>& seeds) {
    if (seeds.empty())
      throw std::invalid_argument(std::string(names_.sampler) + "::sample: empty seeds");
    for (VertexId s : seeds) {
      if (s < 0 || s >= view_->num_vertices())
        throw std::invalid_argument(std::string(names_.sampler) +
                                    "::sample: seed out of range");
    }
    MiniBatch batch;
    batch.seeds = seeds;
    const int num_layers = static_cast<int>(fanouts_.size());
    batch.blocks.resize(static_cast<std::size_t>(num_layers));

    std::vector<VertexId> frontier = seeds;
    // Top-down: output layer first, then inward toward the input features.
    for (int l = num_layers - 1; l >= 0; --l) {
      ++stream_;
      Frontier next = expand(frontier, fanouts_[static_cast<std::size_t>(l)]);
      batch.blocks[static_cast<std::size_t>(l)] = std::move(next.block);
      frontier = std::move(next.nodes);
    }
    return batch;
  }

  void reseed(std::uint64_t seed) { stream_ = seed; }

  const std::vector<int>& fanouts() const { return fanouts_; }

 protected:
  /// Points the sampler at a newer view (scratch is re-sized for the
  /// grown vertex space).  Cheap when the vertex count is unchanged.
  void set_view(std::shared_ptr<const View> view) {
    if (!view)
      throw std::invalid_argument(std::string(names_.sampler) + "::" + names_.setter +
                                  ": null " + names_.noun);
    view_ = std::move(view);
    if (static_cast<std::size_t>(view_->num_vertices()) > local_of_.size()) {
      local_of_.resize(static_cast<std::size_t>(view_->num_vertices()), 0);
    }
  }

  const View& view() const { return *view_; }

 private:
  struct Frontier {
    std::vector<VertexId> nodes;
    LayerBlock block;
  };

  Frontier expand(const std::vector<VertexId>& dst, int fanout) {
    Frontier frontier;
    LayerBlock& block = frontier.block;
    block.num_dst = static_cast<std::int64_t>(dst.size());
    block.src_nodes = dst;  // dst prefix convention
    block.indptr.reserve(dst.size() + 1);
    block.indptr.push_back(0);

    for (std::size_t i = 0; i < dst.size(); ++i) {
      local_of_[static_cast<std::size_t>(dst[i])] = static_cast<std::int64_t>(i) + 1;
      touched_.push_back(dst[i]);
    }

    Xoshiro256 rng(splitmix64(stream_));
    for (VertexId v : dst) {
      // The view's live adjacency (streaming: base minus tombstones plus
      // insertions, sorted; sharded: the owner shard's copy) — element
      // for element what a rebuilt CSR would store, so the partial
      // Fisher-Yates below draws the same sample over the rebuild.
      combined_.clear();
      view_->append_neighbors(v, combined_);
      const auto degree = static_cast<std::int64_t>(combined_.size());
      const std::int64_t take = std::min<std::int64_t>(fanout, degree);
      // Partial Fisher-Yates: the first `take` entries become a uniform
      // sample without replacement.
      for (std::int64_t i = 0; i < take; ++i) {
        const auto j = i + static_cast<std::int64_t>(
                               rng.bounded(static_cast<std::uint64_t>(degree - i)));
        std::swap(combined_[static_cast<std::size_t>(i)],
                  combined_[static_cast<std::size_t>(j)]);
        const VertexId u = combined_[static_cast<std::size_t>(i)];
        std::int64_t& slot = local_of_[static_cast<std::size_t>(u)];
        if (slot == 0) {
          block.src_nodes.push_back(u);
          slot = static_cast<std::int64_t>(block.src_nodes.size());
          touched_.push_back(u);
        }
        block.indices.push_back(slot - 1);
      }
      block.indptr.push_back(static_cast<EdgeId>(block.indices.size()));
    }

    for (VertexId v : touched_) local_of_[static_cast<std::size_t>(v)] = 0;
    touched_.clear();

    // True live degrees for the GCN normalisation — the live graph's
    // D(v), not the sampled degree.
    block.src_degrees.reserve(block.src_nodes.size());
    for (VertexId v : block.src_nodes) block.src_degrees.push_back(view_->degree(v));

    frontier.nodes = block.src_nodes;
    return frontier;
  }

  std::shared_ptr<const View> view_;
  std::vector<int> fanouts_;
  std::uint64_t stream_;
  FanoutSamplerNames names_;
  std::vector<std::int64_t> local_of_;  ///< scratch: global -> local (+1), 0 = absent
  std::vector<VertexId> touched_;       ///< scratch: which entries of local_of_ are set
  std::vector<VertexId> combined_;      ///< scratch: one vertex's merged live adjacency
};

/// A non-owning handle on a view the caller keeps alive (the aliasing
/// constructor: no control block, no ownership).
template <class View>
std::shared_ptr<const View> borrow_view(const View& view) {
  return std::shared_ptr<const View>(std::shared_ptr<const View>(), &view);
}

/// Full-neighborhood (exact) computation graph over a view — the shared
/// implementation behind sample_full / sample_full_overlay /
/// sample_full_sharded.  Any
/// take-everything fanout >= every live degree takes every neighbor and
/// burns the same number of RNG draws (one per taken edge), so the
/// bound's exact value never changes the batch — the flat and sharded
/// exact paths agree even though their max-degree bounds may differ.
template <class Sampler, class View>
MiniBatch sample_full_via(const View& view, const std::vector<VertexId>& seeds,
                          int num_layers, const char* caller) {
  if (num_layers <= 0)
    throw std::invalid_argument(std::string(caller) + ": num_layers must be positive");
  const int fanout = static_cast<int>(std::max<EdgeId>(1, view.max_degree()));
  // The view is borrowed for the sampler's (stack-bound) lifetime.
  Sampler sampler(borrow_view(view),
                  std::vector<int>(static_cast<std::size_t>(num_layers), fanout), /*seed=*/0);
  return sampler.sample(seeds);
}

}  // namespace hyscale
