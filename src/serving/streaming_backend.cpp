#include "serving/streaming_backend.hpp"

#include <span>

#include "stream/feature_store.hpp"
#include "stream/overlay_sampler.hpp"
#include "stream/streaming_graph.hpp"

namespace hyscale {

namespace {

class StreamingBackendSession final : public BackendSession {
 public:
  StreamingBackendSession(StreamingGraph& stream, bool cached,
                          const std::vector<int>& fanouts, std::uint64_t sampler_seed,
                          int num_layers)
      : stream_(stream), cached_(cached), num_layers_(num_layers) {
    if (!fanouts.empty()) {
      sampler_ = std::make_unique<OverlaySampler>(stream.current(), fanouts, sampler_seed);
    }
  }

  std::uint64_t acquire() override {
    // Latest published version for the whole micro-batch: consistent
    // view per batch, freshest data per pickup.
    version_ = stream_.current();
    return version_->id();
  }

  MiniBatch sample(const std::vector<VertexId>& seeds, std::uint64_t stream_seed) override {
    if (sampler_) {
      sampler_->set_version(version_);
      sampler_->reseed(stream_seed);
      return sampler_->sample(seeds);
    }
    return sample_full_overlay(*version_, seeds, num_layers_);
  }

  std::optional<StaticFeatureCache::LoadStats> gather(
      const MiniBatch& batch, Tensor& out, std::vector<char>& hit_scratch) override {
    // Fused sample->gather: the minibatch's input-node span feeds the
    // gather directly and lands in the worker's reusable tensor — no
    // temporary id or feature buffers between the stages.
    const auto& nodes = batch.input_nodes();
    const auto stats = stream_.gather(std::span<const VertexId>(nodes.data(), nodes.size()),
                                      out, hit_scratch);
    if (cached_) return stats;
    return std::nullopt;
  }

  void release() override { version_.reset(); }

 private:
  StreamingGraph& stream_;
  bool cached_;
  std::unique_ptr<OverlaySampler> sampler_;  ///< null in full-neighborhood mode
  std::shared_ptr<const GraphVersion> version_;  ///< held acquire -> release
  int num_layers_;
};

class StreamingBackend final : public ServingBackend {
 public:
  StreamingBackend(StreamingGraph& stream, const ServingConfig& config)
      : stream_(stream), fanouts_(config.fanouts) {
    check_store_precision(stream.features(), config);
    if (config.cache_capacity_rows > 0) {
      // Built over the streaming feature store and attached so
      // update_feature refreshes device rows.
      cache_ = std::make_unique<StaticFeatureCache>(stream.dataset().graph, stream.features(),
                                                    config.cache_capacity_rows);
      stream.attach_cache(cache_.get());
    }
  }

  ~StreamingBackend() override {
    if (cache_) stream_.attach_cache(nullptr);
    unbind_metrics();
  }

  const char* name() const override { return "streaming"; }
  const Dataset& dataset() const override { return stream_.dataset(); }
  VertexId query_limit() const override { return stream_.current()->num_vertices(); }

  std::unique_ptr<BackendSession> make_session(std::uint64_t sampler_seed,
                                               int num_layers) override {
    return std::make_unique<StreamingBackendSession>(stream_, cache_ != nullptr, fanouts_,
                                                     sampler_seed, num_layers);
  }

  const StaticFeatureCache* cache() const override { return cache_.get(); }

  void rerank() override { stream_.rerank_now(); }

 private:
  StreamingGraph& stream_;
  std::vector<int> fanouts_;
  std::unique_ptr<StaticFeatureCache> cache_;
};

}  // namespace

std::unique_ptr<ServingBackend> make_streaming_backend(StreamingGraph& stream,
                                                       const ServingConfig& config) {
  return std::make_unique<StreamingBackend>(stream, config);
}

}  // namespace hyscale
