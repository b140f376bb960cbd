// Tests for the extension modules: static feature cache, classification
// report, chrome-trace export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "graph/datasets.hpp"
#include "nn/metrics.hpp"
#include "runtime/feature_cache.hpp"
#include "runtime/trace.hpp"
#include "sampling/neighbor_sampler.hpp"

namespace hyscale {
namespace {

// ------------------------------------------------------------ FeatureCache

Dataset cache_dataset() { return make_community_dataset(3, 64, 8, 17); }

/// One gather of the batch's input rows through `cache`.
StaticFeatureCache::LoadStats gather_batch(StaticFeatureCache& cache, const MiniBatch& batch,
                                           Tensor& x) {
  std::vector<char> scratch;
  const auto& nodes = batch.input_nodes();
  return cache.gather(std::span<const VertexId>(nodes.data(), nodes.size()), x, scratch);
}

TEST(FeatureCache, ZeroCapacityAllMisses) {
  const Dataset ds = cache_dataset();
  const MutableFeatureStore store(ds.features);
  StaticFeatureCache cache(ds.graph, store, 0);
  NeighborSampler sampler(ds.graph, {4, 4}, 1);
  Tensor x;
  const auto stats = gather_batch(cache, sampler.sample({0, 1, 2, 3}), x);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_GT(stats.misses, 0);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.device_bytes, 0.0);
}

TEST(FeatureCache, FullCapacityAllHits) {
  const Dataset ds = cache_dataset();
  const MutableFeatureStore store(ds.features);
  StaticFeatureCache cache(ds.graph, store, ds.num_vertices());
  NeighborSampler sampler(ds.graph, {4, 4}, 1);
  Tensor x;
  const auto stats = gather_batch(cache, sampler.sample({0, 1, 2, 3}), x);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0);
}

TEST(FeatureCache, LoadIsNumericallyIdenticalToPlainGather) {
  const Dataset ds = cache_dataset();
  const MutableFeatureStore store(ds.features);
  StaticFeatureCache cache(ds.graph, store, 32);
  NeighborSampler sampler(ds.graph, {4, 4}, 5);
  const MiniBatch batch = sampler.sample({10, 20, 30});
  Tensor cached_out;
  gather_batch(cache, batch, cached_out);
  for (std::size_t i = 0; i < batch.input_nodes().size(); ++i) {
    const VertexId v = batch.input_nodes()[i];
    for (std::int64_t j = 0; j < ds.features.cols(); ++j) {
      EXPECT_FLOAT_EQ(cached_out.at(static_cast<std::int64_t>(i), j), ds.features.at(v, j));
    }
  }
}

TEST(FeatureCache, DegreeOrderedCachingBeatsExpectationOnSkewedGraphs) {
  // On a power-law graph, caching 10% of vertices by degree must cover
  // far more than 10% of sampled feature accesses.  Keep the frontier
  // well below the graph size so sampling doesn't saturate (which would
  // flatten the hit rate back to the cache fraction).
  MaterializeOptions options;
  options.target_vertices = 1 << 13;
  options.label_signal = false;
  const Dataset ds = materialize_dataset("ogbn-products", options);
  const MutableFeatureStore store(ds.features);
  StaticFeatureCache cache(ds.graph, store, ds.num_vertices() / 10);
  NeighborSampler sampler(ds.graph, {10, 5}, 3);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < ds.num_vertices() && seeds.size() < 16; ++v) {
    if (ds.graph.degree(v) > 0) seeds.push_back(v);
  }
  Tensor x;
  for (int round = 0; round < 5; ++round) gather_batch(cache, sampler.sample(seeds), x);
  EXPECT_GT(cache.totals().hit_rate(), 0.25);  // >> 0.1
}

TEST(FeatureCache, RejectsBadConstruction) {
  const Dataset ds = cache_dataset();
  const MutableFeatureStore wrong(Tensor(ds.num_vertices() + 1, 8));
  const MutableFeatureStore store(ds.features);
  EXPECT_THROW(StaticFeatureCache(ds.graph, wrong, 4), std::invalid_argument);
  EXPECT_THROW(StaticFeatureCache(ds.graph, store, -1), std::invalid_argument);
}

// ---------------------------------------------------- ClassificationReport

TEST(Metrics, ReportOnHandComputedExample) {
  // 4 samples, 2 classes. logits -> predictions {1, 0, 1, 1},
  // labels {1, 0, 0, 1}: class0: tp=1 fp=0 fn=1; class1: tp=2 fp=1 fn=0.
  Tensor logits(4, 2, 0.0f);
  logits.at(0, 1) = 1.0f;
  logits.at(1, 0) = 1.0f;
  logits.at(2, 1) = 1.0f;
  logits.at(3, 1) = 1.0f;
  const std::vector<int> labels = {1, 0, 0, 1};
  const ClassificationReport report = classification_report(logits, labels);
  EXPECT_DOUBLE_EQ(report.accuracy, 0.75);
  ASSERT_EQ(report.per_class.size(), 2u);
  EXPECT_DOUBLE_EQ(report.per_class[0].precision(), 1.0);
  EXPECT_DOUBLE_EQ(report.per_class[0].recall(), 0.5);
  EXPECT_NEAR(report.per_class[0].f1(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(report.per_class[1].precision(), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(report.per_class[1].recall(), 1.0);
  EXPECT_NEAR(report.per_class[1].f1(), 0.8, 1e-12);
  EXPECT_NEAR(report.macro_f1, (2.0 / 3.0 + 0.8) / 2.0, 1e-12);
}

TEST(Metrics, ReportMatchesAccuracyFunction) {
  Tensor logits(50, 5);
  for (std::int64_t i = 0; i < logits.size(); ++i)
    logits.data()[i] = static_cast<float>((i * 37 % 11) - 5);
  std::vector<int> labels(50);
  for (std::size_t i = 0; i < 50; ++i) labels[i] = static_cast<int>(i % 5);
  const ClassificationReport report = classification_report(logits, labels);
  EXPECT_DOUBLE_EQ(report.accuracy, accuracy(logits, labels));
}

TEST(Metrics, ReportRejectsBadLabels) {
  Tensor logits(1, 3, 0.0f);
  EXPECT_THROW(classification_report(logits, std::vector<int>{5}), std::invalid_argument);
  EXPECT_THROW(classification_report(logits, std::vector<int>{0, 1}), std::invalid_argument);
}

TEST(Metrics, EmptyClassHasZeroF1NotNan) {
  Tensor logits(2, 3, 0.0f);
  logits.at(0, 0) = 1.0f;
  logits.at(1, 0) = 1.0f;
  const ClassificationReport report = classification_report(logits, std::vector<int>{0, 0});
  EXPECT_DOUBLE_EQ(report.per_class[2].f1(), 0.0);
  EXPECT_FALSE(std::isnan(report.macro_f1));
}

// -------------------------------------------------------------- ChromeTrace

EpochReport small_report() {
  MaterializeOptions options;
  options.target_vertices = 1 << 10;
  options.label_signal = false;
  static const Dataset ds = materialize_dataset("ogbn-products", options);
  HybridTrainerConfig config;
  config.real_compute = false;
  config.trajectory_cap = 16;
  HybridTrainer trainer(ds, cpu_fpga_platform(2), config);
  return trainer.train_epoch();
}

TEST(ChromeTrace, ContainsOneEventPerStagePerIteration) {
  const EpochReport report = small_report();
  const std::string trace = to_chrome_trace(report, PipelineMode::kTwoStagePrefetch);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  std::size_t events = 0;
  for (std::size_t pos = trace.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = trace.find("\"ph\": \"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, report.trajectory.size() * 4);
}

TEST(ChromeTrace, SequentialModeSerialisesStages) {
  const EpochReport report = small_report();
  const std::string two = to_chrome_trace(report, PipelineMode::kTwoStagePrefetch);
  const std::string seq = to_chrome_trace(report, PipelineMode::kSequential);
  EXPECT_NE(two, seq);
}

TEST(ChromeTrace, WritesFile) {
  const EpochReport report = small_report();
  const std::string path = "/tmp/hyscale_trace_test.json";
  write_chrome_trace(report, PipelineMode::kTwoStagePrefetch, path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyscale
