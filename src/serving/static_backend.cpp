#include "serving/static_backend.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "runtime/feature_loader.hpp"
#include "sampling/neighbor_sampler.hpp"

namespace hyscale {

namespace {

class StaticBackend;

class StaticBackendSession final : public BackendSession {
 public:
  StaticBackendSession(const Dataset& dataset, StaticFeatureCache* cache,
                       const std::vector<int>& fanouts, std::uint64_t sampler_seed,
                       int num_layers)
      : dataset_(dataset), cache_(cache), num_layers_(num_layers) {
    if (!fanouts.empty()) {
      sampler_ = std::make_unique<NeighborSampler>(dataset.graph, fanouts, sampler_seed);
    }
    if (cache_ == nullptr) {
      loader_ = std::make_unique<FeatureLoader>(dataset.features);
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
      const MiniBatch& batch, Tensor& out, std::vector<char>& /*hit_scratch*/) override {
    if (cache_ != nullptr) return cache_->load(batch, out);
    loader_->load(batch, out);
    return std::nullopt;
  }

  void release() override {}

 private:
  const Dataset& dataset_;
  StaticFeatureCache* cache_;
  std::unique_ptr<NeighborSampler> sampler_;  ///< null in full-neighborhood mode
  std::unique_ptr<FeatureLoader> loader_;     ///< fallback when no cache
  int num_layers_;
};

class StaticBackend final : public ServingBackend {
 public:
  StaticBackend(const Dataset& dataset, const ServingConfig& config)
      : dataset_(dataset), fanouts_(config.fanouts) {
    if (config.cache_capacity_rows > 0) {
      cache_ = std::make_unique<StaticFeatureCache>(dataset_.graph, dataset_.features,
                                                    config.cache_capacity_rows,
                                                    config.transfer_precision);
    } else if (config.transfer_precision != TransferPrecision::kFp32) {
      throw std::invalid_argument(
          "InferenceServer: static mode applies transfer_precision to the device cache; "
          "set cache_capacity_rows > 0 or use fp32");
    }
  }

  ~StaticBackend() override { unbind_metrics(); }

  const char* name() const override { return "static"; }
  const Dataset& dataset() const override { return dataset_; }
  VertexId query_limit() const override { return dataset_.graph.num_vertices(); }

  std::unique_ptr<BackendSession> make_session(std::uint64_t sampler_seed,
                                               int num_layers) override {
    return std::make_unique<StaticBackendSession>(dataset_, cache_.get(), fanouts_,
                                                  sampler_seed, num_layers);
  }

  const StaticFeatureCache* cache() const override { return cache_.get(); }

  void rerank() override {
    if (!cache_ || cache_->capacity() == 0) return;
    // Static mode has no dead vertices, so the candidate pool is simply
    // every trackable row; the ranking matches StreamingGraph's
    // fold-time re-rank (traffic first, dataset degree breaks ties, id
    // stabilises).
    const auto limit =
        std::min<VertexId>(static_cast<VertexId>(cache_->trackable_rows()),
                           dataset_.graph.num_vertices());
    if (limit <= 0) return;
    std::vector<VertexId> candidates(static_cast<std::size_t>(limit));
    std::iota(candidates.begin(), candidates.end(), VertexId{0});
    const auto hotter = [this](VertexId a, VertexId b) {
      const std::uint64_t ca = cache_->access_count(a);
      const std::uint64_t cb = cache_->access_count(b);
      if (ca != cb) return ca > cb;
      const EdgeId da = dataset_.graph.degree(a);
      const EdgeId db = dataset_.graph.degree(b);
      if (da != db) return da > db;
      return a < b;
    };
    const auto top = std::min<std::size_t>(candidates.size(),
                                           static_cast<std::size_t>(cache_->capacity()));
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<std::ptrdiff_t>(top),
                      candidates.end(), hotter);
    candidates.resize(top);
    cache_->rerank(candidates);
  }

 private:
  const Dataset& dataset_;
  std::vector<int> fanouts_;
  std::unique_ptr<StaticFeatureCache> cache_;
};

}  // namespace

std::unique_ptr<ServingBackend> make_static_backend(const Dataset& dataset,
                                                    const ServingConfig& config) {
  return std::make_unique<StaticBackend>(dataset, config);
}

}  // namespace hyscale
