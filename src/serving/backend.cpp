#include "serving/backend.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace hyscale {

void ServingBackend::check_store_precision(const MutableFeatureStore& store,
                                           const ServingConfig& config) {
  if (store.precision() == config.transfer_precision) return;
  throw std::invalid_argument(
      std::string("ServingBackend: transfer_precision ") +
      transfer_precision_name(config.transfer_precision) + " differs from the feature store's " +
      transfer_precision_name(store.precision()) + "; build the store at the serving precision");
}

void ServingBackend::bind_metrics(MetricsRegistry& registry) {
  const StaticFeatureCache* cache = this->cache();
  if (cache == nullptr || registry_ == &registry) return;
  unbind_metrics();
  registry_ = &registry;
  // Pulled at snapshot time; frozen by unbind_metrics() before the
  // cache dies.
  const auto gauge = [&](const char* name, auto getter) {
    registry.register_callback(name, this,
                               [cache, getter] { return static_cast<double>(getter(*cache)); });
  };
  gauge("cache.invalidations", [](const StaticFeatureCache& c) { return c.invalidations(); });
  gauge("cache.evictions", [](const StaticFeatureCache& c) { return c.evictions(); });
  gauge("cache.reranks", [](const StaticFeatureCache& c) { return c.reranks(); });
  gauge("cache.readmitted_rows",
        [](const StaticFeatureCache& c) { return c.readmitted_rows(); });
  gauge("cache.rerank_evicted_rows",
        [](const StaticFeatureCache& c) { return c.rerank_evicted_rows(); });
}

void ServingBackend::unbind_metrics() {
  if (registry_ != nullptr) registry_->detach(this);
}

}  // namespace hyscale
