#include "serving/sharded_backend.hpp"

#include <span>
#include <vector>

#include "shard/sharded_graph.hpp"
#include "shard/sharded_sampler.hpp"

namespace hyscale {

namespace {

class ShardedBackendSession final : public BackendSession {
 public:
  ShardedBackendSession(ShardedStreamingGraph& sharded, bool cached,
                        const std::vector<int>& fanouts, std::uint64_t sampler_seed,
                        int num_layers)
      : sharded_(sharded), cached_(cached), num_layers_(num_layers) {
    if (!fanouts.empty()) {
      sampler_ =
          std::make_unique<ShardedSampler>(sharded.current_cut(), fanouts, sampler_seed);
    }
  }

  std::uint64_t acquire() override {
    // Latest ADOPTED cut for the whole micro-batch: one frozen
    // cross-shard version vector, so a query never mixes a pre-publish
    // shard with a post-publish one.
    cut_ = sharded_.current_cut();
    return cut_->cut_id();
  }

  MiniBatch sample(const std::vector<VertexId>& seeds, std::uint64_t stream_seed) override {
    if (sampler_) {
      sampler_->set_cut(cut_);
      sampler_->reseed(stream_seed);
      return sampler_->sample(seeds);
    }
    return sample_full_sharded(*cut_, seeds, num_layers_);
  }

  std::optional<StaticFeatureCache::LoadStats> gather(
      const MiniBatch& batch, Tensor& out, std::vector<char>& hit_scratch) override {
    // One shared feature store and device cache: the block is the flat
    // gather's, whichever shards own the rows.
    const auto& nodes = batch.input_nodes();
    const auto stats =
        sharded_.gather(std::span<const VertexId>(nodes.data(), nodes.size()), out, hit_scratch);
    if (cached_) return stats;
    return std::nullopt;
  }

  void release() override { cut_.reset(); }

 private:
  ShardedStreamingGraph& sharded_;
  bool cached_;
  std::unique_ptr<ShardedSampler> sampler_;  ///< null in full-neighborhood mode
  std::shared_ptr<const ShardedCut> cut_;    ///< held acquire -> release
  int num_layers_;
};

class ShardedBackend final : public ServingBackend {
 public:
  ShardedBackend(ShardedStreamingGraph& sharded, const ServingConfig& config)
      : sharded_(sharded), fanouts_(config.fanouts) {
    check_store_precision(sharded.features(), config);
    if (config.cache_capacity_rows > 0) {
      // One device cache over the shared store, ranked by the full
      // dataset's degrees and attached through the facade so every
      // feature write invalidates it.
      cache_ = std::make_unique<StaticFeatureCache>(
          sharded.dataset().graph, sharded.features(), config.cache_capacity_rows);
      sharded.attach_cache(cache_.get());
    }
  }

  ~ShardedBackend() override {
    if (cache_) sharded_.attach_cache(nullptr);
    unbind_metrics();
  }

  const char* name() const override { return "sharded"; }
  const Dataset& dataset() const override { return sharded_.dataset(); }
  VertexId query_limit() const override { return sharded_.current_cut()->num_vertices(); }

  std::unique_ptr<BackendSession> make_session(std::uint64_t sampler_seed,
                                               int num_layers) override {
    return std::make_unique<ShardedBackendSession>(sharded_, cache_ != nullptr, fanouts_,
                                                   sampler_seed, num_layers);
  }

  const StaticFeatureCache* cache() const override { return cache_.get(); }

  void rerank() override { sharded_.rerank_now(); }

 private:
  ShardedStreamingGraph& sharded_;
  std::vector<int> fanouts_;
  std::unique_ptr<StaticFeatureCache> cache_;
};

}  // namespace

std::unique_ptr<ServingBackend> make_sharded_backend(ShardedStreamingGraph& sharded,
                                                     const ServingConfig& config) {
  return std::make_unique<ShardedBackend>(sharded, config);
}

}  // namespace hyscale
