// Tests for the ServingBackend seam (src/serving/backend.hpp) plus live
// model hot-swap.
//
// Seam leg: InferenceServer has one constructor, over a backend the
// caller builds with make_static_backend / make_streaming_backend /
// make_sharded_backend.  The server reports that backend's mode label
// and journals it on serving_start.  Value equivalence across modes is
// the job of the stream and shard differential suites.
//
// Hot-swap leg: swap_model() under concurrent traffic must never tear
// a batch — every served result matches exactly one of the staged
// epochs' oracles (run under TSan via the sanitizer presets).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/hyscale.hpp"

namespace hyscale {
namespace {

const Dataset& community() {
  static const Dataset ds = make_community_dataset(3, 32, 8, 2);
  return ds;
}

ModelConfig small_model_config() {
  ModelConfig config;
  config.kind = GnnKind::kSage;
  config.dims = {8, 16, 3};
  config.seed = 11;
  return config;
}

/// Exact reference: full-neighborhood sample + plain gather + forward.
Tensor direct_forward(GnnModel& model, const Dataset& ds, const std::vector<VertexId>& seeds) {
  const MiniBatch batch = sample_full(ds.graph, seeds, model.config().num_layers());
  FeatureLoader loader(ds.features);
  Tensor x;
  loader.load(batch, x);
  return model.forward(batch, x);
}

/// Probe seed sets, clamped to `limit`; ids repeat across sets.
std::vector<std::vector<VertexId>> probe_seed_sets(VertexId limit) {
  std::vector<std::vector<VertexId>> sets = {
      {0, 17, 40}, {5, 17, 63, 90}, {0, 40, 90}, {2}, {31, 32, 33, 64, 65}};
  for (auto& seeds : sets)
    for (VertexId& v : seeds) v %= limit;
  return sets;
}

// ------------------------------------------------------- journal labelling

TEST(BackendSeam, ServingStartJournalsBackendLabel) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  StreamingGraph graph(ds, {});
  ShardedConfig sharded_config;
  sharded_config.num_shards = 2;
  ShardedStreamingGraph sharded(ds, sharded_config);
  sharded.publish_all();

  // Serves over the backend `make_backend` builds and returns the
  // serving_start journal detail.  The backend is built after the
  // telemetry it binds its cache.* gauges to, so it dies first.
  const auto start_detail = [&](const char* name, auto make_backend) {
    Telemetry telemetry;
    ServingConfig config;
    config.num_workers = 1;
    config.telemetry = &telemetry;
    auto backend = make_backend(config);
    InferenceServer server(*backend, snapshot, config);
    EXPECT_STREQ(server.backend().name(), name);
    for (const JournalEvent& event : telemetry.journal().events()) {
      if (event.kind == "serving_start") return event.detail;
    }
    return std::string();
  };
  EXPECT_NE(start_detail("static",
                         [&](const ServingConfig& c) { return make_static_backend(ds, c); })
                .find("backend=static"),
            std::string::npos);
  EXPECT_NE(start_detail("streaming",
                         [&](const ServingConfig& c) { return make_streaming_backend(graph, c); })
                .find("backend=streaming"),
            std::string::npos);
  EXPECT_NE(start_detail("sharded",
                         [&](const ServingConfig& c) { return make_sharded_backend(sharded, c); })
                .find("backend=sharded"),
            std::string::npos);
}

// ------------------------------------------------------------ model swap

TEST(ModelHotSwap, NextBatchServesTheNewEpoch) {
  const Dataset& ds = community();
  GnnModel model_a(small_model_config());
  ModelConfig config_b = small_model_config();
  config_b.seed = 97;  // same architecture, different weights
  GnnModel model_b(config_b);

  ServingConfig config;  // full neighborhood: exact, oracle-comparable
  config.num_workers = 2;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, ModelSnapshot(model_a), config);
  EXPECT_EQ(server.model_epoch(), 1u);

  const std::vector<VertexId> seeds = {0, 17, 40, 95};
  EXPECT_DOUBLE_EQ(
      Tensor::max_abs_diff(server.infer(seeds).logits, direct_forward(model_a, ds, seeds)),
      0.0);

  EXPECT_EQ(server.swap_model(ModelSnapshot(model_b)), 2u);
  EXPECT_EQ(server.model_epoch(), 2u);
  EXPECT_DOUBLE_EQ(
      Tensor::max_abs_diff(server.infer(seeds).logits, direct_forward(model_b, ds, seeds)),
      0.0);

  // Swaps stack: back to A's weights at epoch 3.
  EXPECT_EQ(server.swap_model(ModelSnapshot(model_a)), 3u);
  EXPECT_DOUBLE_EQ(
      Tensor::max_abs_diff(server.infer(seeds).logits, direct_forward(model_a, ds, seeds)),
      0.0);
}

TEST(ModelHotSwap, RejectsMismatchedArchitecture) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  auto backend = make_static_backend(ds, {});
  InferenceServer server(*backend, ModelSnapshot(model), {});

  ModelConfig wrong_classes = small_model_config();
  wrong_classes.dims = {8, 16, 4};
  GnnModel more_classes(wrong_classes);
  EXPECT_THROW(server.swap_model(ModelSnapshot(more_classes)), std::invalid_argument);

  ModelConfig wrong_depth = small_model_config();
  wrong_depth.dims = {8, 12, 16, 3};
  GnnModel deeper(wrong_depth);
  EXPECT_THROW(server.swap_model(ModelSnapshot(deeper)), std::invalid_argument);

  EXPECT_EQ(server.model_epoch(), 1u);  // failed swaps do not bump the epoch
}

TEST(ModelHotSwap, ConcurrentTrafficNeverTearsABatch) {
  // Hammer the server from client threads while the main thread swaps
  // epochs A -> B -> A -> ...  Full-neighborhood mode is exact, so
  // every result must be BITWISE one of the two oracles — a batch that
  // mixed weights mid-flight would match neither.  (The interesting
  // data race — workers re-reading the staged snapshot while swaps
  // publish it — is what the TSan preset checks.)
  const Dataset& ds = community();
  GnnModel model_a(small_model_config());
  ModelConfig config_b = small_model_config();
  config_b.seed = 97;
  GnnModel model_b(config_b);

  const std::vector<std::vector<VertexId>> sets = probe_seed_sets(ds.graph.num_vertices());
  std::vector<Tensor> oracle_a, oracle_b;
  for (const auto& seeds : sets) {
    oracle_a.push_back(direct_forward(model_a, ds, seeds));
    oracle_b.push_back(direct_forward(model_b, ds, seeds));
  }

  ServingConfig config;
  config.num_workers = 3;
  // One request per micro-batch: coalescing merges computation graphs
  // and shifts float rounding ~1e-7, which would drown the bitwise
  // oracle check this test is actually about.
  config.batch.max_batch_requests = 1;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, ModelSnapshot(model_a), config);

  std::atomic<int> torn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const std::size_t probe = static_cast<std::size_t>(t + i) % sets.size();
        const Tensor logits = server.infer(sets[probe]).logits;
        const bool is_a = Tensor::max_abs_diff(logits, oracle_a[probe]) == 0.0;
        const bool is_b = Tensor::max_abs_diff(logits, oracle_b[probe]) == 0.0;
        if (!is_a && !is_b) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int swap = 0; swap < 16; ++swap) {
    server.swap_model(ModelSnapshot(swap % 2 == 0 ? model_b : model_a));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(server.model_epoch(), 17u);  // construction epoch + 16 swaps
}

}  // namespace
}  // namespace hyscale
