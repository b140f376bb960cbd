// Tests for the sharded streaming serving tier (src/shard/): owner
// routing and lockstep vertex spaces across shards, the one shared
// feature plane (one store, one device cache, updates visible before
// any adoption, no torn rows under concurrent writers),
// consistent-cut semantics (staleness detection, monotone cut ids,
// no-op adoption), the background CutAdopter, and the serving tier's
// sharded mode (the device cache, gathers, traffic-triggered cache
// re-ranks).  Bit-level parity against the flat stack lives in
// test_shard_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.hpp"
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

ShardedConfig sharded_config(int shards) {
  ShardedConfig config;
  config.num_shards = shards;
  return config;
}

// ------------------------------------------------------------ facade basics

TEST(ShardedGraph, RejectsDegenerateConfigs) {
  EXPECT_THROW(ShardedStreamingGraph(community(), sharded_config(0)),
               std::invalid_argument);
}

TEST(ShardedGraph, OwnerShardHoldsCompleteAdjacency) {
  // The bit-identity contract's topology leg: shard s's base keeps every
  // edge incident to a vertex it owns, so the owner's version serves the
  // vertex's FULL live neighborhood, element-identical to the dataset.
  // Every id, dataset or streamed-in, is owned by one seeded hash.
  const Dataset& ds = community();
  constexpr int kShards = 3;
  ShardedStreamingGraph graph(ds, sharded_config(kShards));
  const auto hashed_owner = [&](VertexId v) {
    std::uint64_t h = graph.config().partition_seed ^ static_cast<std::uint64_t>(v);
    return static_cast<int>(splitmix64(h) % kShards);
  };
  const auto cut = graph.current_cut();
  std::vector<VertexId> live;
  std::vector<VertexId> owned(kShards, 0);
  for (VertexId v = 0; v < ds.graph.num_vertices(); ++v) {
    ASSERT_EQ(graph.owner(v), hashed_owner(v)) << "vertex " << v;
    EXPECT_EQ(cut->owner(v), graph.owner(v)) << "vertex " << v;
    ++owned[static_cast<std::size_t>(graph.owner(v))];
    ASSERT_EQ(cut->degree(v), ds.graph.degree(v)) << "vertex " << v;
    live.clear();
    cut->append_neighbors(v, live);
    const auto expected = ds.graph.neighbors(v);
    ASSERT_TRUE(std::equal(live.begin(), live.end(), expected.begin(), expected.end()))
        << "vertex " << v;
  }
  for (int s = 0; s < kShards; ++s) EXPECT_GT(owned[static_cast<std::size_t>(s)], 0) << s;
  const std::vector<float> row(8, 0.5f);
  for (int i = 0; i < 8; ++i) {
    const VertexId v = graph.add_vertex(row);
    EXPECT_EQ(graph.owner(v), hashed_owner(v)) << "streamed-in vertex " << v;
  }
}

TEST(ShardedGraph, SingleShardDegeneratesToFlatBehaviour) {
  ShardedStreamingGraph graph(community(), sharded_config(1));
  EXPECT_EQ(graph.num_shards(), 1);
  EXPECT_TRUE(graph.add_edge(0, 9));
  EXPECT_FALSE(graph.add_edge(0, 9));  // duplicate
  graph.publish_all();
  EXPECT_EQ(graph.current_cut()->degree(0), community().graph.degree(0) + 1);

  // A feature update is served by the next gather, and shard 0 owns
  // every vertex.
  ASSERT_TRUE(graph.update_feature(5, std::vector<float>(8, 2.0f)));
  std::vector<VertexId> nodes(static_cast<std::size_t>(graph.num_vertices()));
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = static_cast<VertexId>(i);
  Tensor out;
  std::vector<char> scratch;
  graph.gather(std::span<const VertexId>(nodes.data(), nodes.size()), out, scratch);
  EXPECT_EQ(out.at(5, 0), 2.0f);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) EXPECT_EQ(graph.owner(v), 0) << v;
}

TEST(ShardedGraph, VertexSpacesStayInLockstep) {
  ShardedStreamingGraph graph(community(), sharded_config(3));
  const VertexId before = graph.num_vertices();
  const std::vector<float> row(8, 0.5f);
  const VertexId a = graph.add_vertex(row);
  const VertexId b = graph.add_vertex(row);
  EXPECT_EQ(a, before);
  EXPECT_EQ(b, before + 1);
  for (int s = 0; s < graph.num_shards(); ++s) {
    EXPECT_EQ(graph.shard(s).num_vertices(), before + 2) << "shard " << s;
  }
  // Streamed-in vertices have a deterministic hashed owner and can be
  // wired into the topology through the facade.
  const int owner = graph.owner(a);
  EXPECT_GE(owner, 0);
  EXPECT_LT(owner, graph.num_shards());
  EXPECT_EQ(owner, graph.owner(a));  // stable
  EXPECT_TRUE(graph.add_edge(a, 0));
  EXPECT_TRUE(graph.remove_vertex(a));
  EXPECT_FALSE(graph.remove_vertex(a));  // double retirement rejected
  graph.publish_all();
  EXPECT_FALSE(graph.current_cut()->alive(a));
  EXPECT_TRUE(graph.current_cut()->alive(b));
}

TEST(ShardedGraph, RejectedRowChangesNoShard) {
  ShardedStreamingGraph graph(community(), sharded_config(3));
  const VertexId before = graph.num_vertices();
  std::vector<float> row(8, 0.5f);
  row[2] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(graph.add_vertex(row), std::invalid_argument);
  EXPECT_THROW(graph.add_vertex(std::vector<float>(7, 0.5f)), std::invalid_argument);
  EXPECT_THROW(graph.update_feature(0, row), std::invalid_argument);
  EXPECT_EQ(graph.num_vertices(), before);
  for (int s = 0; s < graph.num_shards(); ++s) {
    EXPECT_EQ(graph.shard(s).num_vertices(), before) << "shard " << s;
  }
  EXPECT_EQ(graph.features().rows(), before);
  EXPECT_EQ(graph.add_vertex(std::vector<float>(8, 0.5f)), before);
}

TEST(ShardedGraph, EdgeOpsRouteToBothEndpointOwners) {
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(2));
  // Find a cross-shard vertex pair with no existing edge.
  VertexId u = -1, v = -1;
  for (VertexId a = 0; a < ds.graph.num_vertices() && u < 0; ++a) {
    for (VertexId b = 0; b < ds.graph.num_vertices(); ++b) {
      if (a == b || graph.owner(a) == graph.owner(b)) continue;
      const auto nbrs = ds.graph.neighbors(a);
      if (std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end()) continue;
      u = a;
      v = b;
      break;
    }
  }
  ASSERT_GE(u, 0) << "community dataset should have a cross-shard non-edge";
  EXPECT_TRUE(graph.add_edge(u, v));
  EXPECT_FALSE(graph.add_edge(v, u));  // duplicate through either endpoint
  graph.publish_all();
  const auto cut = graph.current_cut();
  // Both owners serve the edge: degree grew on each endpoint's owner row.
  std::vector<VertexId> nbrs;
  cut->append_neighbors(u, nbrs);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), v), nbrs.end());
  nbrs.clear();
  cut->append_neighbors(v, nbrs);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), u), nbrs.end());
  EXPECT_TRUE(graph.remove_edge(u, v));
  EXPECT_FALSE(graph.remove_edge(u, v));
  const ShardedStats stats = graph.stats();
  EXPECT_EQ(stats.ingested_edges, 2);  // logical count: one undirected insert
  EXPECT_EQ(stats.removed_edges, 2);
  EXPECT_EQ(stats.duplicate_edges, 1);
  EXPECT_EQ(stats.rejected_removals, 1);
}

// ------------------------------------------------------------ feature plane

TEST(ShardedGraph, EveryShardSharesOneFeatureStore) {
  ShardedStreamingGraph graph(community(), sharded_config(3));
  for (int s = 0; s < graph.num_shards(); ++s) {
    EXPECT_EQ(&graph.shard(s).features(), &graph.features()) << "shard " << s;
  }
  // A streamed-in vertex gets one row, not one per shard.
  const std::int64_t rows = graph.features().rows();
  graph.add_vertex(std::vector<float>(8, 0.5f));
  EXPECT_EQ(graph.features().rows(), rows + 1);
}

TEST(ShardedGraph, UpdateIsVisibleToEveryGatherBeforeAnyAdopt) {
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(2));
  // One vertex per owner shard: whichever shard owns the row, the next
  // gather serves the new values, with no adoption in between.
  std::vector<VertexId> nodes;
  for (int s = 0; s < graph.num_shards(); ++s) {
    VertexId v = 0;
    while (graph.owner(v) != s) ++v;
    nodes.push_back(v);
  }
  const std::uint64_t cut_before = graph.current_cut()->cut_id();
  std::vector<float> fresh(8);
  for (std::size_t i = 0; i < fresh.size(); ++i) fresh[i] = static_cast<float>(i) + 0.25f;
  for (const VertexId v : nodes) ASSERT_TRUE(graph.update_feature(v, fresh));
  EXPECT_FALSE(graph.cut_stale());  // a feature write never stales the cut

  Tensor out;
  std::vector<char> scratch;
  graph.gather(std::span<const VertexId>(nodes.data(), nodes.size()), out, scratch);
  for (std::size_t r = 0; r < nodes.size(); ++r) {
    for (std::size_t c = 0; c < fresh.size(); ++c) {
      EXPECT_EQ(out.at(static_cast<std::int64_t>(r), static_cast<std::int64_t>(c)), fresh[c])
          << "vertex " << nodes[r] << " col " << c;
    }
  }
  EXPECT_EQ(graph.current_cut()->cut_id(), cut_before);
}

// Returns the value a row of constant `c` gathers to through an int8
// wire: every element quantizes alike, so the row stays constant.
float int8_round_trip(float c) {
  MutableFeatureStore store(Tensor(1, 8, c), TransferPrecision::kInt8);
  Tensor out;
  const VertexId v = 0;
  store.gather(std::span<const VertexId>(&v, 1), out);
  return out.at(0, 0);
}

TEST(ShardedGraph, ConcurrentWritesNeverServeATornRow) {
  // Writers update, add and remove vertices through the facade while
  // readers gather and a maintenance thread publishes, adopts and
  // re-ranks the int8 device cache.  Every write fills its row with one
  // constant, so a gathered row whose elements differ was torn.
  const Dataset& ds = community();
  ShardedStreamingGraph graph(
      ds, sharded_config(2),
      std::make_shared<MutableFeatureStore>(ds.features, TransferPrecision::kInt8));
  ServingConfig config;
  config.cache_capacity_rows = 16;
  config.transfer_precision = TransferPrecision::kInt8;
  auto backend = make_sharded_backend(graph, config);
  ASSERT_NE(backend->cache(), nullptr);

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kOps = 240;
  const VertexId base = ds.graph.num_vertices();
  // Start from constant rows, so every row is constant at every instant.
  for (VertexId v = 0; v < base; ++v) {
    ASSERT_TRUE(graph.update_feature(v, std::vector<float>(8, static_cast<float>(v % 7) - 3.0f)));
  }
  graph.publish_all();

  // last[w] maps each vertex writer w touched to its final constant
  // (0 for a removed vertex).
  std::vector<std::vector<std::pair<VertexId, float>>> last(kWriters);
  // Writers start only once every reader has checked one gather, so
  // rows_checked > 0 does not depend on how the threads get scheduled.
  std::atomic<int> readers_ready{0};
  std::atomic<int> writers_done{0};
  std::atomic<std::int64_t> torn{0};
  std::atomic<std::int64_t> rows_checked{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<VertexId> added;
      std::size_t next_removal = 0;
      while (readers_ready.load() < kReaders) std::this_thread::yield();
      for (int i = 0; i < kOps; ++i) {
        const float c = static_cast<float>(w * 1000 + i + 1);
        const std::vector<float> row(8, c);
        switch (i % 4) {
          case 0:
          case 1: {  // writer w owns the base vertices v % kWriters == w
            const auto v = static_cast<VertexId>((i * kWriters + w) % base);
            if (graph.update_feature(v, row)) last[w].emplace_back(v, c);
            break;
          }
          case 2: {
            const VertexId v = graph.add_vertex(row);
            added.push_back(v);
            last[w].emplace_back(v, c);
            break;
          }
          default:
            if (next_removal < added.size() && graph.remove_vertex(added[next_removal])) {
              last[w].emplace_back(added[next_removal], 0.0f);
              ++next_removal;
            }
        }
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::vector<VertexId> nodes(16);
      std::vector<char> scratch;
      Tensor out;
      std::uint64_t state = 7 + static_cast<std::uint64_t>(r);
      bool ready = false;
      while (!ready || writers_done.load() < kWriters) {
        const auto limit = static_cast<std::uint64_t>(graph.current_cut()->num_vertices());
        for (auto& v : nodes) v = static_cast<VertexId>(splitmix64(state) % limit);
        graph.gather(std::span<const VertexId>(nodes.data(), nodes.size()), out, scratch);
        for (std::int64_t i = 0; i < out.rows(); ++i) {
          const auto row = out.row(i);
          for (const float x : row) {
            if (std::memcmp(&x, &row[0], sizeof(float)) != 0) {
              torn.fetch_add(1);
              break;
            }
          }
        }
        rows_checked.fetch_add(out.rows());
        if (!ready) {
          ready = true;
          readers_ready.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (writers_done.load() < kWriters) {
      for (int s = 0; s < graph.num_shards(); ++s) graph.shard(s).publish();
      graph.adopt();
      backend->rerank();
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(rows_checked.load(), 0);
  // Quiesced: every written row serves its writer's last constant
  // through the int8 wire (writers touch disjoint vertices).
  graph.publish_all();
  std::vector<char> scratch;
  Tensor out;
  for (int w = 0; w < kWriters; ++w) {
    std::vector<std::pair<VertexId, float>> final_values;
    for (const auto& [v, c] : last[w]) {
      std::erase_if(final_values, [v](const auto& entry) { return entry.first == v; });
      final_values.emplace_back(v, c);
    }
    for (const auto& [v, c] : final_values) {
      graph.gather(std::span<const VertexId>(&v, 1), out, scratch);
      EXPECT_EQ(out.at(0, 0), int8_round_trip(c)) << "writer " << w << " vertex " << v;
    }
  }
}

// ------------------------------------------------------------ cuts

TEST(ShardedGraph, CutsAdvanceMonotonicallyAndNoOpWhenQuiet) {
  ShardedStreamingGraph graph(community(), sharded_config(2));
  const auto first = graph.current_cut();
  EXPECT_FALSE(graph.cut_stale());
  // Quiet adopt: nothing published — the SAME cut object stays
  // installed (pointer equality, no counter burn).
  EXPECT_EQ(graph.adopt(), first);
  EXPECT_EQ(graph.current_cut()->cut_id(), first->cut_id());

  ASSERT_TRUE(graph.add_edge(0, 17));
  // The op lives in some shard's unpublished overlay; the cut is only
  // stale once that shard PUBLISHES a version the cut does not contain.
  graph.shard(graph.owner(0)).publish();
  EXPECT_TRUE(graph.cut_stale());
  const auto second = graph.publish_all();
  EXPECT_GT(second->cut_id(), first->cut_id());
  EXPECT_FALSE(graph.cut_stale());
}

TEST(ShardedGraph, SnapshotIsolationAcrossAdoptions) {
  // A cut handed to a query stays frozen while newer cuts are adopted —
  // the sharded analogue of per-batch snapshot isolation.
  ShardedStreamingGraph graph(community(), sharded_config(2));
  const auto cut = graph.publish_all();
  const EdgeId degree_before = cut->degree(3);
  ASSERT_TRUE(graph.add_edge(3, 19));
  graph.publish_all();
  EXPECT_EQ(cut->degree(3), degree_before);  // old cut unchanged
  EXPECT_EQ(graph.current_cut()->degree(3), degree_before + 1);
}

TEST(CutAdopterTest, BackgroundThreadAdoptsPublishedVersions) {
  ShardedStreamingGraph graph(community(), sharded_config(2));
  CutAdopter adopter(graph);
  const std::uint64_t before = graph.current_cut()->cut_id();
  ASSERT_TRUE(graph.add_edge(1, 22));
  for (int s = 0; s < graph.num_shards(); ++s) graph.shard(s).publish();
  // The adopter must fold the per-shard publishes into a new cut without
  // any publish_all() from us.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (graph.current_cut()->cut_id() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(graph.current_cut()->cut_id(), before);
  EXPECT_GE(adopter.adoptions(), 1);
  adopter.stop();
}

// ------------------------------------------------------------ serving tier

TEST(ShardedServing, ServerRoutesAndMatchesDirectForward) {
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(2));
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig config;
  config.num_workers = 2;
  auto backend = make_sharded_backend(graph, config);
  InferenceServer server(*backend, snapshot, config);
  EXPECT_STREQ(server.backend().name(), "sharded");

  // Full-neighborhood mode over the untouched base: logits must be
  // EXACTLY the direct computation on the dataset.
  const std::vector<VertexId> seeds = {1, 9, 33};
  const InferenceResult result = server.infer(seeds);
  const MiniBatch direct = sample_full(ds.graph, seeds, model.config().num_layers());
  FeatureLoader loader(ds.features);
  Tensor x;
  loader.load(direct, x);
  const Tensor expected = model.forward(direct, x);
  ASSERT_EQ(result.logits.rows(), static_cast<std::int64_t>(seeds.size()));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::int64_t c = 0; c < expected.cols(); ++c) {
      EXPECT_DOUBLE_EQ(result.logits.at(static_cast<std::int64_t>(i), c),
                       expected.at(static_cast<std::int64_t>(i), c));
    }
  }
  EXPECT_GT(server.last_served_version(), 0u);  // cut id, not version id
}

TEST(ShardedServing, OneDeviceCacheAttachesAndDetaches) {
  const Dataset& ds = community();
  ShardedStreamingGraph graph(
      ds, sharded_config(2),
      std::make_shared<MutableFeatureStore>(ds.features, TransferPrecision::kInt8));
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig config;
  config.num_workers = 1;
  config.cache_capacity_rows = 16;
  config.transfer_precision = TransferPrecision::kInt8;
  {
    auto backend = make_sharded_backend(graph, config);
    InferenceServer server(*backend, snapshot, config);
    const StaticFeatureCache* cache = server.cache();
    ASSERT_NE(cache, nullptr);
    (void)server.infer({0, 5, 40});
    EXPECT_GT(cache->totals().hits + cache->totals().misses, 0);
    // The one cache sees every shard's writes through the facade: a
    // write to a pinned row of any owner refreshes it.
    std::int64_t writes = 0;
    for (int s = 0; s < graph.num_shards(); ++s) {
      VertexId v = 0;
      while (v < graph.num_vertices() && (graph.owner(v) != s || !cache->cached(v))) ++v;
      ASSERT_LT(v, graph.num_vertices()) << "no pinned row owned by shard " << s;
      const std::int64_t before = cache->invalidations();
      ASSERT_TRUE(graph.update_feature(v, std::vector<float>(8, 2.0f)));
      writes += cache->invalidations() - before;
    }
    EXPECT_EQ(writes, graph.num_shards());
  }
  // Server gone: a feature update must not touch a dangling cache.
  std::vector<float> row(8, 3.0f);
  EXPECT_TRUE(graph.update_feature(1, row));
}

TEST(ShardedServing, TrafficRerankCadenceFiresWithoutFolds) {
  // Satellite: the re-rank cadence is TRAFFIC-driven — no compaction
  // fold ever runs here, yet the cache re-ranks every N gathered rows.
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(2));
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig config;
  config.num_workers = 1;
  config.cache_capacity_rows = 8;
  config.cache_rerank_every_rows = 32;
  auto backend = make_sharded_backend(graph, config);
  InferenceServer server(*backend, snapshot, config);
  for (int i = 0; i < 12; ++i) {
    (void)server.infer({static_cast<VertexId>(i), static_cast<VertexId>(i + 20)});
  }
  EXPECT_GT(server.traffic_reranks(), 0);
  EXPECT_GT(server.cache()->reranks(), 0);
}

TEST(ShardedServing, StaticModeTrafficRerankUsesAccessCounters) {
  // The same cadence in STATIC mode: no StreamingGraph at all, the
  // server re-ranks its own cache from traffic counters + dataset
  // degrees.
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig config;
  config.num_workers = 1;
  config.cache_capacity_rows = 8;
  config.cache_rerank_every_rows = 24;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);
  for (int i = 0; i < 10; ++i) {
    (void)server.infer({static_cast<VertexId>(ds.graph.num_vertices() - 1 - i)});
  }
  EXPECT_GT(server.traffic_reranks(), 0);
  EXPECT_GT(server.cache()->reranks(), 0);
}

TEST(ShardedServing, SessionLifecycleRunsCleanly) {
  // HyScale::stream_sharded end to end: per-shard compactors +
  // publishers + the adopter, concurrent ingest and queries, clean
  // teardown in reverse dependency order.
  const Dataset& ds = community();
  HyScale system(ds, cpu_fpga_platform(2));
  system.train_epoch();
  ShardedConfig sharded = sharded_config(2);
  ServingConfig serving;
  serving.num_workers = 2;
  PublisherPolicy publisher;
  publisher.staleness_budget = 0.002;
  ServingSession session = system.stream_sharded(sharded, serving, CompactionPolicy{}, publisher);
  EXPECT_EQ(session.compactors.size(), 2u);
  EXPECT_EQ(session.publishers.size(), 2u);
  ASSERT_NE(session.adopter, nullptr);
  EXPECT_EQ(session.sweeper, nullptr);

  // Two writers: edge inserts and feature refreshes through the facade.
  std::atomic<std::int64_t> accepted{0};
  const auto write = [&](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const std::vector<float> row(8, 0.25f);
    const auto n = static_cast<std::uint64_t>(ds.graph.num_vertices());
    for (int i = 0; i < 100; ++i) {
      const auto u = static_cast<VertexId>(rng.bounded(n));
      const auto v = static_cast<VertexId>(rng.bounded(n));
      if (i % 5 == 0) {
        (void)session.shards().update_feature(u, row);
      } else if (u != v && session.shards().add_edge(u, v)) {
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread first(write, 5);
  std::thread second(write, 6);
  for (int i = 0; i < 20; ++i) {
    const InferenceResult r = session.infer({static_cast<VertexId>(i % 60)});
    EXPECT_EQ(r.predictions.size(), 1u);
  }
  first.join();
  second.join();
  EXPECT_GT(accepted.load(), 0);
  EXPECT_EQ(session.shards().stats().ingested_edges, 2 * accepted.load());
}

}  // namespace
}  // namespace hyscale
