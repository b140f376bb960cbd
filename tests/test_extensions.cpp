// Tests for the extension modules: static feature cache and the Fig. 7
// chrome-trace export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "graph/datasets.hpp"
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

// -------------------------------------------------------------- ChromeTrace

EpochReport small_report() {
  MaterializeOptions options;
  options.target_vertices = 1 << 10;
  options.label_signal = false;
  static const Dataset ds = materialize_dataset("ogbn-products", options);
  HybridTrainerConfig config;
  config.real_iterations_cap = 0;
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

/// (start, end) in µs of every event in `trace`, keyed by (name,
/// iteration).  to_chrome_trace writes one event per line.
std::map<std::pair<std::string, long>, std::pair<double, double>> trace_spans(
    const std::string& trace) {
  const auto field = [](const std::string& line, const std::string& key) {
    return line.substr(line.find(key) + key.size());
  };
  std::map<std::pair<std::string, long>, std::pair<double, double>> spans;
  std::istringstream lines(trace);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    const std::string name = field(line, "\"name\": \"");
    const double ts = std::stod(field(line, "\"ts\": "));
    const double dur = std::stod(field(line, "\"dur\": "));
    const long iteration = std::stol(field(line, "\"iteration\": "));
    spans[{name.substr(0, name.find('"')), iteration}] = {ts, ts + dur};
  }
  return spans;
}

TEST(ChromeTrace, SequentialModeSerialisesStages) {
  // Fig. 7: under the two-stage feature prefetch, iteration i+1's
  // Sampling starts while iteration i's GNNPropagation+Sync still runs;
  // without the pipeline it starts no earlier than that end (to the
  // trace's printed 1 ns resolution, rounded twice in an end).
  const EpochReport report = small_report();
  ASSERT_GE(report.trajectory.size(), 2u);
  const std::string two = to_chrome_trace(report, PipelineMode::kTwoStagePrefetch);
  const std::string seq = to_chrome_trace(report, PipelineMode::kSequential);
  EXPECT_NE(two, seq);
  const auto pipelined = trace_spans(two);
  const auto serial = trace_spans(seq);
  for (std::size_t k = 1; k < report.trajectory.size(); ++k) {
    const long prev = report.trajectory[k - 1].iteration;
    const long next = report.trajectory[k].iteration;
    SCOPED_TRACE(testing::Message() << "iterations " << prev << " -> " << next);
    EXPECT_LT(pipelined.at({"Sampling", next}).first,
              pipelined.at({"GNNPropagation+Sync", prev}).second);
    EXPECT_GE(serial.at({"Sampling", next}).first,
              serial.at({"GNNPropagation+Sync", prev}).second - 2e-3);
  }
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
