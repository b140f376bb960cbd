#include "serving/static_backend.hpp"

#include <span>
#include <vector>

#include "sampling/neighbor_sampler.hpp"
#include "stream/feature_store.hpp"

namespace hyscale {

namespace {

class StaticBackend;

class StaticBackendSession final : public BackendSession {
 public:
  StaticBackendSession(const Dataset& dataset, const MutableFeatureStore& store,
                       StaticFeatureCache* cache, const std::vector<int>& fanouts,
                       std::uint64_t sampler_seed, int num_layers)
      : dataset_(dataset), store_(store), cache_(cache), num_layers_(num_layers) {
    if (!fanouts.empty()) {
      sampler_ = std::make_unique<NeighborSampler>(dataset.graph, fanouts, sampler_seed);
    }
  }

  std::uint64_t acquire() override { return 0; }  // the dataset never changes

  MiniBatch sample(const std::vector<VertexId>& seeds, std::uint64_t stream_seed) override {
    if (sampler_) {
      sampler_->reseed(stream_seed);
      return sampler_->sample(seeds);
    }
    return sample_full(dataset_.graph, seeds, num_layers_);
  }

  std::optional<StaticFeatureCache::LoadStats> gather(
      const MiniBatch& batch, Tensor& out, std::vector<char>& hit_scratch) override {
    const auto& nodes = batch.input_nodes();
    const std::span<const VertexId> span(nodes.data(), nodes.size());
    if (cache_ != nullptr) return cache_->gather(span, out, hit_scratch);
    store_.gather(span, out);
    return std::nullopt;
  }

  void release() override {}

 private:
  const Dataset& dataset_;
  const MutableFeatureStore& store_;
  StaticFeatureCache* cache_;
  std::unique_ptr<NeighborSampler> sampler_;  ///< null in full-neighborhood mode
  int num_layers_;
};

class StaticBackend final : public ServingBackend {
 public:
  StaticBackend(const Dataset& dataset, const ServingConfig& config)
      : dataset_(dataset),
        fanouts_(config.fanouts),
        store_(dataset.features, config.transfer_precision) {
    if (config.cache_capacity_rows > 0) {
      cache_ = std::make_unique<StaticFeatureCache>(dataset_.graph, store_,
                                                    config.cache_capacity_rows);
    }
  }

  ~StaticBackend() override { unbind_metrics(); }

  const char* name() const override { return "static"; }
  const Dataset& dataset() const override { return dataset_; }
  VertexId query_limit() const override { return dataset_.graph.num_vertices(); }

  std::unique_ptr<BackendSession> make_session(std::uint64_t sampler_seed,
                                               int num_layers) override {
    return std::make_unique<StaticBackendSession>(dataset_, store_, cache_.get(), fanouts_,
                                                  sampler_seed, num_layers);
  }

  const StaticFeatureCache* cache() const override { return cache_.get(); }

  // Static mode has no dead vertices: every trackable row is a candidate.
  void rerank() override {
    if (cache_) cache_->rerank_by_traffic(dataset_.graph);
  }

 private:
  const Dataset& dataset_;
  std::vector<int> fanouts_;
  MutableFeatureStore store_;  ///< the dataset's rows at the serving precision
  std::unique_ptr<StaticFeatureCache> cache_;
};

}  // namespace

std::unique_ptr<ServingBackend> make_static_backend(const Dataset& dataset,
                                                    const ServingConfig& config) {
  return std::make_unique<StaticBackend>(dataset, config);
}

}  // namespace hyscale
