// Tests for the online inference serving subsystem (src/serving/):
// micro-batch coalescing and deadlines, bounded-queue backpressure,
// served-vs-direct logit equivalence, determinism under a fixed seed,
// checkpoint -> ModelSnapshot round-trips, and concurrent use of the
// shared StaticFeatureCache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
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

InferenceRequest make_request(std::vector<VertexId> seeds) {
  InferenceRequest request;
  request.seeds = std::move(seeds);
  request.enqueue_time = std::chrono::steady_clock::now();
  return request;
}

// ------------------------------------------------------------------ stats

/// The histogram bucket holding `seconds` (Histogram's bounds are in ms).
std::size_t bucket_of(Seconds seconds) {
  const auto& bounds = Histogram::bucket_bounds_ms();
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), seconds * 1e3) - bounds.begin());
}

TEST(ServingStats, NearestRankPercentilesUseOneBasedRanks) {
  // Regression for the nearest-rank off-by-one: ceil(q * n) is a
  // 1-BASED rank.  Over {1, 2, 3, 4} ms, p50 is rank ceil(0.5 * 4) = 2,
  // so it lands in 2 ms's bucket; the rank-as-index bug reads rank 3,
  // which lands in 3 ms's bucket.  Percentiles are interpolated within
  // ~15% buckets, so they are pinned to bucket tolerance.
  ServingStats stats;
  for (const Seconds latency : {0.004, 0.002, 0.001, 0.003}) {
    stats.record_completion(latency, /*queue_wait=*/latency / 2);
  }
  const ServingSnapshot s = stats.snapshot();
  EXPECT_EQ(bucket_of(s.latency_p50), bucket_of(0.002));
  EXPECT_LT(bucket_of(s.latency_p50), bucket_of(0.003));
  EXPECT_NEAR(s.latency_p50, 0.002, 0.15 * 0.002);
  EXPECT_DOUBLE_EQ(s.latency_p95, 0.004);  // rank 4: the largest, capped at the max
  EXPECT_DOUBLE_EQ(s.latency_p99, 0.004);
  EXPECT_EQ(bucket_of(s.queue_wait_p50), bucket_of(0.001));
  EXPECT_NEAR(s.queue_wait_p50, 0.001, 0.15 * 0.001);
  // Means and maxima are exact.
  EXPECT_DOUBLE_EQ(s.latency_mean, 0.0025);
  EXPECT_DOUBLE_EQ(s.latency_max, 0.004);
  EXPECT_DOUBLE_EQ(s.queue_wait_max, 0.002);
}

TEST(ServingStats, PercentilesOfSingleSampleAreThatSample) {
  ServingStats stats;
  stats.record_completion(0.007);
  const ServingSnapshot s = stats.snapshot();
  EXPECT_DOUBLE_EQ(s.latency_p50, 0.007);
  EXPECT_DOUBLE_EQ(s.latency_p95, 0.007);
  EXPECT_DOUBLE_EQ(s.latency_p99, 0.007);
}

TEST(ServingStats, PercentilesMatchNearestRankOnHundredSamples) {
  // 1..100 ms: nearest-rank pN is the Nth smallest sample; the
  // histogram estimate lands within its ~15% bucket.
  ServingStats stats;
  for (int i = 100; i >= 1; --i) stats.record_completion(static_cast<Seconds>(i) * 1e-3);
  const ServingSnapshot s = stats.snapshot();
  EXPECT_NEAR(s.latency_p50, 0.050, 0.15 * 0.050);
  EXPECT_NEAR(s.latency_p95, 0.095, 0.15 * 0.095);
  EXPECT_NEAR(s.latency_p99, 0.099, 0.15 * 0.099);
  EXPECT_DOUBLE_EQ(s.latency_max, 0.100);
  EXPECT_DOUBLE_EQ(s.latency_mean, 0.0505);
}

TEST(ServingStats, HistogramPercentilesStayStableOnLongRuns) {
  // The latency record is a fixed-bucket histogram over EVERY
  // completion, so percentiles of a long run stay near the true
  // distribution instead of sliding to a recent window.  Feed a
  // scrambled permutation of {1..n} µs: every true quantile is exact by
  // construction.
  ServingStats stats;
  const std::int64_t n = 4 * (1 << 16);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t k = (i * 92821) % n + 1;  // odd stride: a permutation of 1..n
    const Seconds latency = static_cast<Seconds>(k) * 1e-6;
    stats.record_completion(latency, /*queue_wait=*/latency / 2);
  }
  const ServingSnapshot s = stats.snapshot();
  EXPECT_EQ(s.completed_requests, n);
  // Means and max are exact (tracked over ALL completions).
  EXPECT_DOUBLE_EQ(s.latency_max, static_cast<Seconds>(n) * 1e-6);
  EXPECT_NEAR(s.latency_mean, 0.5 * (n + 1) * 1e-6, 1e-9 * n);
  // Interpolation within a bucket over a uniform fill is close to
  // exact; +-2% of the range still catches a windowed/biased record (a
  // sliding window would read ~top-25% here).
  const double tol = 0.02 * static_cast<double>(n) * 1e-6;
  EXPECT_NEAR(s.latency_p50, 0.50 * n * 1e-6, tol);
  EXPECT_NEAR(s.latency_p95, 0.95 * n * 1e-6, tol);
  EXPECT_NEAR(s.latency_p99, 0.99 * n * 1e-6, tol);
  // Queue waits are half of each latency, so their quantiles track
  // half the latency distribution.
  EXPECT_NEAR(s.queue_wait_p50, 0.25 * n * 1e-6, tol);
  EXPECT_NEAR(s.queue_wait_p99, 0.495 * n * 1e-6, tol);
}

// ---------------------------------------------------------------- batcher

TEST(DynamicBatcher, BoundedQueueRejectsWhenFull) {
  BatchPolicy policy;
  policy.queue_capacity = 2;
  policy.max_wait = 0.0;
  DynamicBatcher batcher(policy);
  EXPECT_TRUE(batcher.submit(make_request({0})));
  EXPECT_TRUE(batcher.submit(make_request({1})));
  EXPECT_FALSE(batcher.submit(make_request({2})));  // full
  EXPECT_EQ(batcher.depth(), 2u);

  // Draining one batch frees capacity again.
  std::vector<InferenceRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_TRUE(batcher.submit(make_request({2})));
  batcher.shutdown();
  EXPECT_FALSE(batcher.submit(make_request({3})));  // stopped
}

TEST(DynamicBatcher, CoalescesUpToRequestLimit) {
  BatchPolicy policy;
  policy.max_batch_requests = 3;
  policy.max_wait = 10.0;  // never the trigger here
  DynamicBatcher batcher(policy);
  for (VertexId v = 0; v < 6; ++v) ASSERT_TRUE(batcher.submit(make_request({v})));

  std::vector<InferenceRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 3u);  // closed by the request limit, not the deadline
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 3u);
  batcher.shutdown();
  EXPECT_FALSE(batcher.next_batch(batch));
}

TEST(DynamicBatcher, DeadlineDispatchesPartialBatch) {
  BatchPolicy policy;
  policy.max_batch_requests = 64;
  policy.max_wait = 0.02;  // 20ms
  DynamicBatcher batcher(policy);
  ASSERT_TRUE(batcher.submit(make_request({0, 1})));

  std::vector<InferenceRequest> batch;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(batcher.next_batch(batch));
  const Seconds waited = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(batch.size(), 1u);   // partial batch, released by the deadline
  EXPECT_LT(waited, 5.0);        // and nowhere near "wait forever"
  batcher.shutdown();
}

TEST(DynamicBatcher, SeedBudgetClosesBatchAndOversizedRequestStillServed) {
  BatchPolicy policy;
  policy.max_batch_requests = 64;
  policy.max_batch_seeds = 4;
  policy.max_wait = 10.0;
  DynamicBatcher batcher(policy);
  ASSERT_TRUE(batcher.submit(make_request({0, 1, 2})));
  ASSERT_TRUE(batcher.submit(make_request({3, 4, 5})));
  ASSERT_TRUE(batcher.submit(make_request({6, 7, 8, 9, 10, 11})));  // > max alone

  // The budget is a ceiling: adding the second 3-seed request would
  // exceed 4, so each closes its own batch; the 6-seed request exceeds
  // the budget alone and must still be served (batches never wedge).
  std::vector<InferenceRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().seeds.size(), 3u);
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().seeds.size(), 6u);
  batcher.shutdown();
}

TEST(DynamicBatcher, ShutdownDrainsAcceptedRequests) {
  BatchPolicy policy;
  policy.max_batch_requests = 2;
  policy.max_wait = 10.0;
  DynamicBatcher batcher(policy);
  for (VertexId v = 0; v < 3; ++v) ASSERT_TRUE(batcher.submit(make_request({v})));
  batcher.shutdown();
  std::vector<InferenceRequest> batch;
  std::size_t drained = 0;
  while (batcher.next_batch(batch)) drained += batch.size();
  EXPECT_EQ(drained, 3u);  // nothing accepted is ever dropped
}

// ----------------------------------------------------------------- server

TEST(InferenceServer, ServedLogitsMatchDirectForward) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;  // empty fanouts = full neighborhood (exact)
  config.num_workers = 2;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  const std::vector<VertexId> seeds = {0, 17, 40, 95};
  const InferenceResult result = server.infer(seeds);
  const Tensor expected = direct_forward(model, ds, seeds);
  ASSERT_EQ(result.logits.rows(), expected.rows());
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(result.logits, expected), 0.0);
  ASSERT_EQ(result.predictions.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    int best = 0;
    for (std::int64_t c = 1; c < expected.cols(); ++c) {
      if (expected.at(static_cast<std::int64_t>(i), c) >
          expected.at(static_cast<std::int64_t>(i), best))
        best = static_cast<int>(c);
    }
    EXPECT_EQ(result.predictions[i], best);
  }
}

TEST(InferenceServer, CoalescesConcurrentRequestsIntoOneMicroBatch) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.num_workers = 1;
  config.batch.max_batch_requests = 4;
  config.batch.max_wait = 0.5;  // generous: submissions land well inside it
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  std::vector<std::future<InferenceResult>> futures;
  for (VertexId v = 0; v < 4; ++v) {
    auto f = server.try_submit({v, v + 4});
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  std::vector<InferenceResult> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const auto& r : results) {
    EXPECT_EQ(r.batch_id, results.front().batch_id);
    EXPECT_EQ(r.batch_requests, 4);
    EXPECT_EQ(r.batch_seeds, 8);
  }
  const ServingSnapshot stats = server.stats();
  EXPECT_EQ(stats.completed_requests, 4);
  EXPECT_EQ(stats.completed_batches, 1);
  EXPECT_DOUBLE_EQ(stats.mean_batch_requests, 4.0);
}

TEST(InferenceServer, RespectsDeadlineForLonelyRequest) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.num_workers = 1;
  config.batch.max_batch_requests = 64;  // never filled by one request
  config.batch.max_wait = 0.02;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  const InferenceResult result = server.infer({3});
  EXPECT_EQ(result.batch_requests, 1);
  EXPECT_GE(result.latency, 0.0);
  EXPECT_LT(result.latency, 5.0);
}

TEST(InferenceServer, BackpressureRejectsAndRecovers) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.num_workers = 1;
  config.batch.max_batch_requests = 1;
  config.batch.max_wait = 0.0;
  config.batch.queue_capacity = 1;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  std::vector<std::future<InferenceResult>> accepted;
  std::int64_t rejected = 0;
  for (int i = 0; i < 500 && rejected < 5; ++i) {
    auto f = server.try_submit({static_cast<VertexId>(i % ds.graph.num_vertices())});
    if (f) {
      accepted.push_back(std::move(*f));
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);  // a 1-deep queue must push back on a tight loop
  for (auto& f : accepted) f.get();  // accepted requests all complete
  const ServingSnapshot stats = server.stats();
  EXPECT_EQ(stats.rejected_requests, rejected);
  EXPECT_EQ(stats.completed_requests, static_cast<std::int64_t>(accepted.size()));
}

TEST(InferenceServer, SampledFanoutsAreDeterministicUnderFixedSeed) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.fanouts = {3, 3};
  config.seed = 99;
  config.num_workers = 2;  // determinism must not depend on which worker serves
  const std::vector<VertexId> seeds = {5, 44, 80};

  auto backend_a = make_static_backend(ds, config);
  InferenceServer server_a(*backend_a, snapshot, config);
  const Tensor first = server_a.infer(seeds).logits;
  const Tensor again = server_a.infer(seeds).logits;  // same server, later batch
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(first, again), 0.0);

  auto backend_b = make_static_backend(ds, config);
  InferenceServer server_b(*backend_b, snapshot, config);  // fresh server, same seed
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(first, server_b.infer(seeds).logits), 0.0);
}

TEST(InferenceServer, InvalidSubmissionsThrow) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  auto backend = make_static_backend(ds, {});
  InferenceServer server(*backend, snapshot, {});
  EXPECT_THROW(server.try_submit({}), std::invalid_argument);
  EXPECT_THROW(server.try_submit({ds.graph.num_vertices()}), std::invalid_argument);
  EXPECT_THROW(server.try_submit({-1}), std::invalid_argument);

  ServingConfig bad;
  bad.fanouts = {3};  // model has 2 layers
  auto bad_backend = make_static_backend(ds, bad);
  EXPECT_THROW(InferenceServer(*bad_backend, snapshot, bad), std::invalid_argument);
}

TEST(InferenceServer, CachedGathersMatchUncachedAndReportTraffic) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig cached;
  cached.cache_capacity_rows = ds.graph.num_vertices() / 4;
  auto cached_backend = make_static_backend(ds, cached);
  InferenceServer cached_server(*cached_backend, snapshot, cached);
  auto plain_backend = make_static_backend(ds, {});
  InferenceServer plain_server(*plain_backend, snapshot, {});

  const std::vector<VertexId> seeds = {2, 31, 64, 90};
  const Tensor a = cached_server.infer(seeds).logits;
  const Tensor b = plain_server.infer(seeds).logits;
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 0.0);

  const ServingSnapshot stats = cached_server.stats();
  EXPECT_GT(stats.cache_hits + stats.cache_misses, 0);
  EXPECT_GT(stats.cache_hit_rate, 0.0);  // degree-ordered cache must hit some
  EXPECT_GT(stats.host_bytes + stats.device_bytes, 0.0);
}

// ------------------------------------------------- checkpoint round-trip

TEST(ModelSnapshot, CheckpointRoundTripServesIdenticalLogits) {
  MaterializeOptions options;
  options.target_vertices = 1 << 10;
  const Dataset ds = materialize_dataset("ogbn-products", options);

  HybridTrainerConfig train_config;
  train_config.fanouts = {5, 5};
  train_config.real_batch_total = 64;
  train_config.real_iterations_cap = 2;
  HybridTrainer trainer(ds, cpu_fpga_platform(2), train_config);
  trainer.train_epoch();  // real compute moves the weights off their init

  const std::string path = "/tmp/hyscale_serving_ckpt.bin";
  save_checkpoint(trainer.model(), path);
  const ModelSnapshot snapshot(trainer.model().config(), path);
  std::remove(path.c_str());

  auto backend = make_static_backend(ds, {});
  InferenceServer server(*backend, snapshot, {});
  const std::vector<VertexId> seeds = {1, 7, 100, 555};
  const Tensor served = server.infer(seeds).logits;
  const Tensor expected = direct_forward(trainer.model(), ds, seeds);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(served, expected), 0.0);
}

TEST(ModelSnapshot, MissingCheckpointThrows) {
  EXPECT_THROW(ModelSnapshot(small_model_config(), "/tmp/definitely_missing_ckpt.bin"),
               std::runtime_error);
}

// ------------------------------------------------------- cache under load

TEST(StaticFeatureCache, ConcurrentLoadsKeepTotalsConsistent) {
  const Dataset& ds = community();
  NeighborSampler sampler(ds.graph, {3, 3}, 4);
  const MiniBatch batch = sampler.sample({0, 10, 20, 30});
  const MutableFeatureStore store(ds.features);
  StaticFeatureCache cache(ds.graph, store, ds.graph.num_vertices() / 2);
  const std::span<const VertexId> nodes(batch.input_nodes().data(), batch.input_nodes().size());

  const StaticFeatureCache::LoadStats one = [&] {
    Tensor x;
    std::vector<char> scratch;
    return cache.gather(nodes, x, scratch);
  }();
  const std::int64_t rows_per_load = one.hits + one.misses;

  constexpr int kThreads = 4;
  constexpr int kLoads = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Tensor x;  // per-caller output and scratch, per the API contract
      std::vector<char> scratch;
      for (int i = 0; i < kLoads; ++i) cache.gather(nodes, x, scratch);
    });
  }
  for (auto& t : threads) t.join();

  const auto totals = cache.totals();
  EXPECT_EQ(totals.hits + totals.misses, rows_per_load * (kThreads * kLoads + 1));
  EXPECT_EQ(totals.hits, one.hits * (kThreads * kLoads + 1));
}

// ------------------------------------------------------------ end to end

TEST(LoadGenerator, ClosedLoopSessionCompletesAllRequests) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.fanouts = {3, 3};
  config.num_workers = 2;
  config.batch.max_wait = 1e-3;
  config.cache_capacity_rows = 24;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  LoadGeneratorConfig load;
  load.num_clients = 3;
  load.requests_per_client = 20;
  load.seeds_per_request = 2;
  LoadGenerator generator(server, ds, load);
  const LoadReport report = generator.run();

  EXPECT_EQ(report.completed_requests, 60);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GT(report.wall_time, 0.0);
  EXPECT_EQ(report.server.completed_requests, 60);
  EXPECT_GT(report.server.latency_p99, 0.0);
  EXPECT_GE(report.server.latency_p99, report.server.latency_p50);
  EXPECT_GE(report.server.max_batch_requests, 1);
  EXPECT_FALSE(report.to_string().empty());
}

TEST(HyScaleFacade, TrainThenServe) {
  MaterializeOptions options;
  options.target_vertices = 1 << 10;
  const Dataset ds = materialize_dataset("ogbn-products", options);

  HybridTrainerConfig train_config;
  train_config.fanouts = {5, 5};
  train_config.real_batch_total = 64;
  train_config.real_iterations_cap = 2;
  HyScale system(ds, cpu_fpga_platform(2), train_config);
  system.train_epoch();

  ServingConfig serving;
  serving.fanouts = {5, 5};
  serving.cache_capacity_rows = 128;
  ServingSession session = system.serve(serving);
  EXPECT_STREQ(session.backend->name(), "static");
  const InferenceResult result = session.infer({0, 42});
  EXPECT_EQ(result.logits.rows(), 2);
  EXPECT_EQ(result.logits.cols(), ds.info.f2);
  EXPECT_EQ(result.predictions.size(), 2u);
}

}  // namespace
}  // namespace hyscale
