// google-benchmark micro-benches for the substrates: GEMM, feature
// gather (plain rows and the streaming cache+store path at fp32 vs
// int8), neighbor sampling (static and over a streaming overlay), the
// streaming publish, source-sorted edges, gradient all-reduce, and the
// set-up stages: the CSR build and the whole dataset materialisation.  These measure the REAL kernels on the host
// (wall clock), complementing the simulated-platform harnesses.
#include <benchmark/benchmark.h>

#include <chrono>

#include "common/rng.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generator.hpp"
#include "nn/model.hpp"
#include "runtime/feature_cache.hpp"
#include "runtime/sync.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sampling/sorted_edges.hpp"
#include "stream/overlay_sampler.hpp"
#include "stream/streaming_graph.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace hyscale {
namespace {

const CsrGraph& bench_graph() {
  static const CsrGraph g = [] {
    RmatParams p;
    p.scale = 13;
    p.edge_factor = 12;
    return generate_rmat(p);
  }();
  return g;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Tensor a(n, n), b(n, n), c(n, n);
  uniform_init(a, -1, 1, 1);
  uniform_init(b, -1, 1, 2);
  for (auto _ : state) {
    gemm(a, false, b, false, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmSkinny(benchmark::State& state) {
  // The GNN-update shape: (batch x f_in) * (f_in x f_out).
  const auto rows = static_cast<std::int64_t>(state.range(0));
  Tensor a(rows, 256), b(256, 256), c(rows, 256);
  uniform_init(a, -1, 1, 1);
  uniform_init(b, -1, 1, 2);
  for (auto _ : state) {
    gemm(a, false, b, false, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * 256 * 256);
}
BENCHMARK(BM_GemmSkinny)->Arg(1024)->Arg(4096);

// The GEMMs the system actually runs, at the default SAGE dims {100, 256,
// 47} (SAGE's update input is [self || mean], so f_in doubles):
//   serving   layer 0 ~100 x 200 x 256 and layer 1 28 x 512 x 47 for a
//             batch of a few 4-seed requests at fanouts 10,5;
//   train     layer 0 3958 x 200 x 256 for 1024 seeds at fanouts 25,10
//             on the 2^16-vertex ogbn-products stand-in, forward (NN)
//             and backward's dW = A^T dZ (TN) and dA = dZ W^T (NT);
//             layer 1 1024 x 512 x 47, backward's dW (TN) and dA (NT).
// A fed by a ReLU is about half zeros: layer 1's input, and dZ behind
// the ReLU mask.  The `zero%` argument zeroes that share of A's elements
// at random, so the sparse cases time the kernel on the data it sees.
// Args: m, k, n, trans_a, trans_b, zero%.  GFLOP/s counts 2 FLOPs per
// MAC, zeros included.
void BM_GemmShape(benchmark::State& state) {
  const auto m = static_cast<std::int64_t>(state.range(0));
  const auto k = static_cast<std::int64_t>(state.range(1));
  const auto n = static_cast<std::int64_t>(state.range(2));
  const bool trans_a = state.range(3) != 0;
  const bool trans_b = state.range(4) != 0;
  const double zero_frac = static_cast<double>(state.range(5)) / 100.0;
  Tensor a = trans_a ? Tensor(k, m) : Tensor(m, k);
  Tensor b = trans_b ? Tensor(n, k) : Tensor(k, n);
  Tensor c(m, n);
  uniform_init(a, -1, 1, 1);
  uniform_init(b, -1, 1, 2);
  Xoshiro256 rng(3);
  for (float& v : a.flat()) {
    if (rng.uniform() < zero_frac) v = 0.0f;
  }
  for (auto _ : state) {
    gemm(a, trans_a, b, trans_b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(2e-9 * static_cast<double>(m * n * k),
                                                 benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmShape)
    ->ArgNames({"m", "k", "n", "tA", "tB", "zero%"})
    ->Args({100, 200, 256, 0, 0, 0})
    ->Args({28, 512, 47, 0, 0, 0})
    ->Args({3958, 200, 256, 0, 0, 0})
    ->Args({200, 3958, 256, 1, 0, 0})
    ->Args({3958, 256, 200, 0, 1, 0})
    ->Args({28, 512, 47, 0, 0, 50})
    ->Args({512, 1024, 47, 1, 0, 50})
    ->Args({1024, 47, 512, 0, 1, 50})
    ->Args({3958, 256, 200, 0, 1, 50})
    ->UseRealTime();

void BM_GatherRows(benchmark::State& state) {
  const auto rows = static_cast<std::int64_t>(state.range(0));
  Tensor features(1 << 13, 128);
  uniform_init(features, -1, 1, 3);
  Xoshiro256 rng(4);
  std::vector<std::int64_t> index(static_cast<std::size_t>(rows));
  for (auto& i : index) i = static_cast<std::int64_t>(rng.bounded(1 << 13));
  Tensor out;
  for (auto _ : state) {
    gather_rows(features, index, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * 128 * 4);
}
BENCHMARK(BM_GatherRows)->Arg(1 << 10)->Arg(1 << 14);

// The ogbn-products stand-in perfbench serves and trains on: 2^16
// vertices, materialised once per process.
const Dataset& products_dataset() {
  static const Dataset dataset = [] {
    MaterializeOptions options;
    options.target_vertices = VertexId{1} << 16;
    return materialize_dataset("ogbn-products", options);
  }();
  return dataset;
}

// The streaming serving gather (device-cache rows + store miss rows) at
// one transfer precision: ogbn-products, a quarter of the vertices
// cached, uniform random batches of 512, so about a quarter of rows
// hit.  Arg `int8` 0 is fp32, 1 int8; the store is built at that
// precision, so int8 rows are quantized once, at write time, and every
// gather only decodes.  Arg `table` 0 gathers from 2^11 vertices
// (0.8 MB fp32, 0.2 MB int8: both fit a 2 MB per-core L2, so the two
// decodes cost alike), 1 from products_dataset()'s 2^16 (26 MB fp32,
// ~6.8 MB int8: past L2, where int8's 4x smaller reads can pay).
// `time/row` is ns per row.
void BM_StreamingGather(benchmark::State& state) {
  constexpr std::size_t kBatch = 512;
  constexpr std::size_t kBatches = 64;
  const TransferPrecision precision =
      state.range(0) != 0 ? TransferPrecision::kInt8 : TransferPrecision::kFp32;
  static const Dataset small = [] {
    MaterializeOptions options;
    options.target_vertices = 1 << 11;
    options.label_signal = false;
    return materialize_dataset("ogbn-products", options);
  }();
  const Dataset& dataset = state.range(1) != 0 ? products_dataset() : small;
  StreamingGraph stream(dataset, {},
                        std::make_shared<MutableFeatureStore>(dataset.features, precision));
  StaticFeatureCache cache(dataset.graph, stream.features(), dataset.graph.num_vertices() / 4);
  stream.attach_cache(&cache);

  Xoshiro256 rng(7);
  const auto n = static_cast<std::uint64_t>(dataset.graph.num_vertices());
  std::vector<VertexId> batches(kBatch * kBatches);
  for (auto& v : batches) v = static_cast<VertexId>(rng.bounded(n));
  Tensor out;
  std::vector<char> scratch;
  std::size_t next = 0;
  for (auto _ : state) {
    stream.gather(std::span<const VertexId>(batches.data() + next * kBatch, kBatch), out,
                  scratch);
    benchmark::DoNotOptimize(out.data());
    next = (next + 1) % kBatches;
  }
  const auto rows = static_cast<double>(state.iterations() * static_cast<std::int64_t>(kBatch));
  state.SetLabel(precision == TransferPrecision::kInt8 ? "int8" : "fp32");
  state.counters["time/row"] =
      benchmark::Counter(rows, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["hit_rate"] = cache.totals().hit_rate();
  state.counters["miss_B/row"] = stream.features().row_wire_bytes();
}
BENCHMARK(BM_StreamingGather)
    ->ArgNames({"int8", "table"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->UseRealTime();

/// `count` distinct training seeds, uniformly at random: a partial
/// Fisher–Yates over `pool` (a copy of the training ids).
std::vector<VertexId> draw_seeds(std::vector<VertexId>& pool, std::size_t count,
                                 Xoshiro256& rng) {
  for (std::size_t i = 0; i < count; ++i)
    std::swap(pool[i], pool[i + rng.bounded(pool.size() - i)]);
  return {pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(count)};
}

/// The two sampling shapes the system runs: the trainer's (fanouts
/// 25,10; a third of perfbench's 1024 seeds per iteration) and
/// serving's (fanouts 10,5; 16 seeds, a few 4-seed requests).
struct SamplingShape {
  std::vector<int> fanouts;
  std::size_t seeds;
  const char* label;
};
SamplingShape sampling_shape(std::int64_t arg) {
  if (arg == 0) return {{25, 10}, 341, "trainer"};
  return {{10, 5}, 16, "serving"};
}

/// Shared reporting: sampled edges per batch and time per edge.
void report_sampling(benchmark::State& state, std::int64_t edges) {
  state.counters["edges/batch"] =
      static_cast<double>(edges) / static_cast<double>(state.iterations());
  state.counters["time/edge"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// The static sampler over the 2^16 ogbn-products CSR with fresh random
// training seeds every iteration (drawing them is in the timed loop; it
// is a few hundred ns against tens of µs of sampling).  Arg 0 is the
// trainer's shape, arg 1 serving's — the static reference for
// BM_OverlaySampling.
void BM_NeighborSampling(benchmark::State& state) {
  const Dataset& dataset = products_dataset();
  const SamplingShape shape = sampling_shape(state.range(0));
  NeighborSampler sampler(dataset.graph, shape.fanouts, 7);
  std::vector<VertexId> pool = dataset.train_ids;
  Xoshiro256 rng(9);
  std::int64_t edges = 0;
  for (auto _ : state) {
    const MiniBatch batch = sampler.sample(draw_seeds(pool, shape.seeds, rng));
    edges += batch.stats().total_edges();
    benchmark::DoNotOptimize(batch.blocks.front().indices.data());
  }
  state.SetLabel(shape.label);
  report_sampling(state, edges);
}
BENCHMARK(BM_NeighborSampling)->ArgName("shape")->Arg(0)->Arg(1);

/// Pends about `ops` directed edge ops on `graph` (symmetric, so two per
/// accepted write): two thirds inserts of random new edges, one third
/// retractions of random base edges.
void pend_ops(StreamingGraph& graph, EdgeId ops, Xoshiro256& rng) {
  const CsrGraph& base = graph.dataset().graph;
  const auto n = static_cast<std::uint64_t>(base.num_vertices());
  while (graph.overlay_ops() < ops) {
    const auto u = static_cast<VertexId>(rng.bounded(n));
    if (rng.bounded(3) != 0) {
      graph.add_edge(u, static_cast<VertexId>(rng.bounded(n)));
    } else if (base.degree(u) > 0) {
      const auto neighbors = base.neighbors(u);
      graph.remove_edge(u, neighbors[rng.bounded(neighbors.size())]);
    }
  }
}

// publish() cost with 0, 1k and 4k ops already pending and 1–4 edge
// writes (2–8 directed ops) since the previous publish: iterations
// alternate between inserting 1–4 fresh random edges and retracting
// them again (their cancelled pairs are then annihilated, so the pending
// count returns to the set level).  Only publish() is timed.
void BM_Publish(benchmark::State& state) {
  const Dataset& dataset = products_dataset();
  StreamingGraph graph(dataset);
  Xoshiro256 rng(11);
  pend_ops(graph, state.range(0), rng);
  graph.publish();
  const auto n = static_cast<std::uint64_t>(dataset.graph.num_vertices());
  std::vector<std::pair<VertexId, VertexId>> inserted;
  for (auto _ : state) {
    if (inserted.empty()) {
      const std::uint64_t writes = 1 + rng.bounded(4);
      while (inserted.size() < writes) {
        const auto u = static_cast<VertexId>(rng.bounded(n));
        const auto v = static_cast<VertexId>(rng.bounded(n));
        if (graph.add_edge(u, v)) inserted.emplace_back(u, v);
      }
    } else {
      for (const auto& [u, v] : inserted) graph.remove_edge(u, v);
      inserted.clear();
      graph.annihilate();
    }
    const auto begin = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(graph.publish());
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count());
  }
  state.counters["pending_ops"] = static_cast<double>(graph.overlay_ops());
  state.counters["touched"] = static_cast<double>(graph.current()->overlay().touched.size());
}
BENCHMARK(BM_Publish)->ArgName("pending")->Arg(0)->Arg(1000)->Arg(4000)->UseManualTime();

// The overlay sampler at the serving shape (fanouts 10,5; 16 fresh
// random training seeds per iteration) over a version with 0, 1k and 4k
// pending ops; BM_NeighborSampling/shape:1 is the same sampling over
// the static CSR.
void BM_OverlaySampling(benchmark::State& state) {
  const Dataset& dataset = products_dataset();
  StreamingGraph graph(dataset);
  Xoshiro256 rng(13);
  pend_ops(graph, state.range(0), rng);
  const SamplingShape shape = sampling_shape(1);
  OverlaySampler sampler(graph.publish(), shape.fanouts, 7);
  std::vector<VertexId> pool = dataset.train_ids;
  std::int64_t edges = 0;
  for (auto _ : state) {
    const MiniBatch batch = sampler.sample(draw_seeds(pool, shape.seeds, rng));
    edges += batch.stats().total_edges();
    benchmark::DoNotOptimize(batch.blocks.front().indices.data());
  }
  report_sampling(state, edges);
}
BENCHMARK(BM_OverlaySampling)->ArgName("pending")->Arg(0)->Arg(1000)->Arg(4000);

void BM_SortedEdges(benchmark::State& state) {
  const CsrGraph& g = bench_graph();
  NeighborSampler sampler(g, {25, 10}, 7);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < g.num_vertices() && seeds.size() < 256; ++v) {
    if (g.degree(v) > 0) seeds.push_back(v);
  }
  const MiniBatch batch = sampler.sample(seeds);
  for (auto _ : state) {
    const SortedEdgeBlock sorted = sort_edges_by_source(batch.blocks.front());
    benchmark::DoNotOptimize(sorted.src.data());
  }
  // The §IV-C reuse claim, measured on real sampled batches:
  const SortedEdgeBlock sorted = sort_edges_by_source(batch.blocks.front());
  state.counters["traffic_reduction"] =
      static_cast<double>(sorted.reads_without_reuse()) /
      static_cast<double>(std::max<std::int64_t>(1, sorted.reads_with_reuse()));
}
BENCHMARK(BM_SortedEdges);

void BM_GradientAllReduce(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  ModelConfig config;
  config.kind = GnnKind::kSage;
  config.dims = {128, 256, 172};
  std::vector<std::unique_ptr<GnnModel>> models;
  std::vector<GnnModel*> views;
  for (int r = 0; r < replicas; ++r) {
    models.push_back(std::make_unique<GnnModel>(config));
    for (auto* p : models.back()->parameters()) p->grad.fill(static_cast<float>(r));
    views.push_back(models.back().get());
  }
  const std::vector<std::int64_t> weights(static_cast<std::size_t>(replicas), 1024);
  for (auto _ : state) {
    Synchronizer::allreduce(views, weights);
    benchmark::DoNotOptimize(views.front());
  }
  state.SetBytesProcessed(state.iterations() * models.front()->num_parameters() * 4 * replicas);
}
BENCHMARK(BM_GradientAllReduce)->Arg(2)->Arg(5);

// Set-up cost at perfbench's scale: ogbn-products' density at 2^16
// vertices (directed edge factor |E| / 2|V|, about 12.6).
RmatParams setup_rmat() {
  RmatParams p;
  p.scale = 16;
  p.edge_factor = dataset_info("ogbn-products").mean_degree() / 2.0;
  return p;
}

void BM_BuildCsr(benchmark::State& state) {
  const auto edges = rmat_edge_list(setup_rmat());
  const VertexId n = VertexId{1} << setup_rmat().scale;
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = edges;
    state.ResumeTiming();
    benchmark::DoNotOptimize(build_csr(n, std::move(copy)));  // symmetrize + dedup
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_BuildCsr)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MaterializeDataset(benchmark::State& state) {
  MaterializeOptions options;
  options.target_vertices = VertexId{1} << 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(materialize_dataset("ogbn-products", options));
  }
}
BENCHMARK(BM_MaterializeDataset)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace hyscale

BENCHMARK_MAIN();
