// Randomized sharded-vs-flat differential harness — the PR-3 standard
// applied to the N-shard stack.
//
// A seeded driver applies the SAME interleaved op sequence (edge
// insertions/retractions, vertex arrivals/retirements, feature
// refreshes, per-shard compactions) to a ShardedStreamingGraph and to
// one flat StreamingGraph oracle (id recycling off, so the vertex
// spaces stay aligned).  Every accept/reject decision must agree, and
// at every adopted cut:
//
//   * per-vertex live adjacency on the cut is element-identical to the
//     flat published version (owner shards hold complete
//     neighborhoods),
//   * sampled MiniBatches are BIT-IDENTICAL between ShardedSampler on
//     the cut and OverlaySampler on the flat version (same fanouts,
//     same seed — the RNG disciplines are clones),
//   * full-neighborhood computation graphs match even though the two
//     samplers use different take-everything fanout bounds,
//   * feature blocks gathered through the facade's one feature plane
//     are bitwise equal to the flat gather — at fp32 and at int8 wire
//     precision (the shared store and device cache apply the flat
//     graph's per-row rule),
//   * forward logits are exactly equal on shared weights,
//   * logical edge counters agree between ShardedStats and StreamStats.
//
// Cross-shard edges, feature writes between adoptions, and
// independently-compacted shard bases are exactly where a sharded
// overlay can drift from the flat truth; randomized interleavings hunt
// those corners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/hyscale.hpp"

namespace hyscale {
namespace {

ModelConfig small_model_config() {
  ModelConfig config;
  config.kind = GnnKind::kSage;
  config.dims = {8, 16, 3};
  config.seed = 11;
  return config;
}

void expect_blocks_equal(const MiniBatch& actual, const MiniBatch& expected) {
  ASSERT_EQ(actual.blocks.size(), expected.blocks.size());
  for (std::size_t l = 0; l < expected.blocks.size(); ++l) {
    EXPECT_EQ(actual.blocks[l].num_dst, expected.blocks[l].num_dst) << "layer " << l;
    EXPECT_EQ(actual.blocks[l].src_nodes, expected.blocks[l].src_nodes) << "layer " << l;
    EXPECT_EQ(actual.blocks[l].indptr, expected.blocks[l].indptr) << "layer " << l;
    EXPECT_EQ(actual.blocks[l].indices, expected.blocks[l].indices) << "layer " << l;
    EXPECT_EQ(actual.blocks[l].src_degrees, expected.blocks[l].src_degrees) << "layer " << l;
  }
}

/// Full cut-vs-flat check at one adoption point.
void verify_cut_vs_flat(const ShardedStreamingGraph& sharded, const ShardedCut& cut,
                        const StreamingGraph& flat, const GraphVersion& version,
                        GnnModel& model, std::uint64_t check_seed, std::int64_t step) {
  SCOPED_TRACE("step " + std::to_string(step));
  ASSERT_EQ(cut.num_vertices(), version.num_vertices());

  // Adjacency leg: the cut's owner-routed reads match the flat version
  // for EVERY vertex — degrees, liveness, and element order.
  std::vector<VertexId> cut_nbrs, flat_nbrs;
  for (VertexId v = 0; v < version.num_vertices(); ++v) {
    ASSERT_EQ(cut.degree(v), version.degree(v)) << "vertex " << v;
    ASSERT_EQ(cut.alive(v), version.alive(v)) << "vertex " << v;
    cut_nbrs.clear();
    flat_nbrs.clear();
    cut.append_neighbors(v, cut_nbrs);
    version.append_neighbors(v, flat_nbrs);
    ASSERT_EQ(cut_nbrs, flat_nbrs) << "vertex " << v;
  }

  Xoshiro256 rng(check_seed);
  std::vector<VertexId> seeds;
  for (int i = 0; i < 4; ++i) {
    seeds.push_back(
        static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(version.num_vertices()))));
  }

  // Sampling leg: bit-identical minibatches at sampled fanouts...
  ShardedSampler sampled(
      std::shared_ptr<const ShardedCut>(&cut, [](const ShardedCut*) {}), {4, 3}, check_seed);
  OverlaySampler reference(
      std::shared_ptr<const GraphVersion>(&version, [](const GraphVersion*) {}), {4, 3},
      check_seed);
  expect_blocks_equal(sampled.sample(seeds), reference.sample(seeds));

  // ...and identical full-neighborhood graphs despite the two samplers
  // deriving different take-everything fanout bounds.
  const MiniBatch full_cut = sample_full_sharded(cut, seeds, /*num_layers=*/2);
  const MiniBatch full_flat = sample_full_overlay(version, seeds, /*num_layers=*/2);
  expect_blocks_equal(full_cut, full_flat);

  // Feature leg: the shared plane must assemble the exact block the
  // flat stack serves (wire precision included).
  Tensor x_flat;
  const auto& nodes = full_flat.input_nodes();
  flat.gather(std::span<const VertexId>(nodes.data(), nodes.size()), x_flat);
  std::vector<char> scratch;
  Tensor x_cut;
  sharded.gather(std::span<const VertexId>(nodes.data(), nodes.size()), x_cut, scratch);
  ASSERT_DOUBLE_EQ(Tensor::max_abs_diff(x_flat, x_cut), 0.0);

  // Model leg: exactly equal logits end to end.
  const Tensor logits_flat = model.forward(full_flat, x_flat);
  const Tensor logits_cut = model.forward(full_cut, x_cut);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(logits_cut, logits_flat), 0.0);
}

struct MixConfig {
  double insert = 0.32;
  double remove = 0.18;
  double vertex_add = 0.07;
  double vertex_remove = 0.04;
  double feature = 0.12;
  double gather_probe = 0.06;  ///< mid-window gather parity, writes unadopted
  double shard_compact = 0.05; ///< fold ONE shard's base out from under the cut
  // remainder: publish_all + full verification
};

void run_sharded_differential(std::uint64_t seed, std::int64_t steps, int num_shards,
                              TransferPrecision wire, const MixConfig& mix = {}) {
  const Dataset ds = make_community_dataset(3, 32, 8, 2);
  ShardedConfig config;
  config.num_shards = num_shards;
  ShardedStreamingGraph sharded(ds, config,
                                std::make_shared<MutableFeatureStore>(ds.features, wire));
  StreamingConfig flat_config;
  flat_config.recycle_ids = false;  // keep both vertex spaces append-only
  StreamingGraph flat(ds, flat_config, std::make_shared<MutableFeatureStore>(ds.features, wire));
  GnnModel model(small_model_config());
  Xoshiro256 rng(seed);

  // Live-edge pool for targeted retractions; stale entries (edges a
  // vertex retirement already dropped) are pruned when both stacks
  // reject them.
  std::vector<std::pair<VertexId, VertexId>> live_edges;
  std::int64_t adoption_points = 0;
  std::int64_t probes = 0;
  std::vector<float> row(8);

  for (std::int64_t step = 0; step < steps; ++step) {
    const double r = rng.uniform();
    const VertexId n = flat.num_vertices();
    const double c_insert = mix.insert;
    const double c_remove = c_insert + mix.remove;
    const double c_vadd = c_remove + mix.vertex_add;
    const double c_vdel = c_vadd + mix.vertex_remove;
    const double c_feat = c_vdel + mix.feature;
    const double c_probe = c_feat + mix.gather_probe;
    const double c_compact = c_probe + mix.shard_compact;

    if (r < c_insert) {
      const auto u = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
      const auto v = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
      const bool flat_accepted = flat.add_edge(u, v);
      ASSERT_EQ(sharded.add_edge(u, v), flat_accepted) << u << "-" << v;
      if (flat_accepted) live_edges.emplace_back(u, v);
    } else if (r < c_remove) {
      VertexId u, v;
      if (!live_edges.empty() && rng.uniform() < 0.8) {
        const auto slot = static_cast<std::size_t>(
            rng.bounded(static_cast<std::uint64_t>(live_edges.size())));
        std::tie(u, v) = live_edges[slot];
        live_edges[slot] = live_edges.back();
        live_edges.pop_back();
      } else {
        u = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
        v = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
      }
      ASSERT_EQ(sharded.remove_edge(u, v), flat.remove_edge(u, v)) << u << "-" << v;
    } else if (r < c_vadd) {
      for (float& x : row) x = static_cast<float>(rng.normal());
      const VertexId flat_id = flat.add_vertex(row);
      ASSERT_EQ(sharded.add_vertex(row), flat_id);  // append-only lockstep
      const auto u = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
      const bool attached = flat.add_edge(flat_id, u);
      ASSERT_EQ(sharded.add_edge(flat_id, u), attached);
      if (attached) live_edges.emplace_back(flat_id, u);
    } else if (r < c_vdel) {
      const auto v = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
      ASSERT_EQ(sharded.remove_vertex(v), flat.remove_vertex(v)) << v;
    } else if (r < c_feat) {
      const auto v = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
      for (float& x : row) x = static_cast<float>(rng.normal());
      ASSERT_EQ(sharded.update_feature(v, row), flat.update_feature(v, row)) << v;
    } else if (r < c_probe) {
      // Mid-window gather parity: feature writes since the last adopt
      // must already be served, matching the flat store exactly.
      std::vector<VertexId> nodes;
      for (int i = 0; i < 6; ++i) {
        nodes.push_back(static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n))));
      }
      Tensor x_flat, x_cut;
      std::vector<char> scratch;
      flat.gather(std::span<const VertexId>(nodes.data(), nodes.size()), x_flat);
      sharded.gather(std::span<const VertexId>(nodes.data(), nodes.size()), x_cut, scratch);
      ASSERT_DOUBLE_EQ(Tensor::max_abs_diff(x_flat, x_cut), 0.0);
      ++probes;
    } else if (r < c_compact) {
      // Fold one shard's base while the others keep their overlays: the
      // next adopted cut mixes compacted and overlay-heavy shard
      // versions and must still match the flat truth.
      const auto s = static_cast<int>(
          rng.bounded(static_cast<std::uint64_t>(sharded.num_shards())));
      sharded.shard(s).compact();
      if (rng.uniform() < 0.5) flat.compact();
    } else {
      const auto cut = sharded.publish_all();
      const auto version = flat.publish();
      verify_cut_vs_flat(sharded, *cut, flat, *version, model, seed ^ (0xabcdULL + step),
                         step);
      ++adoption_points;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Trailing adoption: one final full check + counter conservation.
  const auto cut = sharded.publish_all();
  const auto version = flat.publish();
  verify_cut_vs_flat(sharded, *cut, flat, *version, model, seed ^ 0x9999ULL, steps);
  ++adoption_points;

  const ShardedStats sharded_stats = sharded.stats();
  const StreamStats flat_stats = flat.stats();
  EXPECT_EQ(sharded_stats.ingested_edges, flat_stats.ingested_edges);
  EXPECT_EQ(sharded_stats.duplicate_edges, flat_stats.duplicate_edges);
  EXPECT_EQ(sharded_stats.removed_edges, flat_stats.removed_edges);
  EXPECT_EQ(sharded_stats.rejected_removals, flat_stats.rejected_removals);
  EXPECT_EQ(sharded_stats.added_vertices, flat_stats.added_vertices);
  EXPECT_EQ(sharded_stats.removed_vertices, flat_stats.removed_vertices);
  EXPECT_EQ(sharded_stats.feature_updates, flat_stats.feature_updates);
  // The mix must actually have exercised the machinery.
  EXPECT_GT(adoption_points, 20);
  EXPECT_GT(probes, 10);
  EXPECT_GT(sharded_stats.removed_edges, 0);
  EXPECT_GT(sharded_stats.removed_vertices, 0);
  EXPECT_GT(sharded_stats.feature_updates, 0);
}

TEST(ShardDifferential, TwoShardsHashMatchFlatSeed17) {
  run_sharded_differential(/*seed=*/17, /*steps=*/900, /*num_shards=*/2,
                           TransferPrecision::kFp32);
}

TEST(ShardDifferential, TwoShardsInt8WireMatchesFlatSeed91) {
  // int8 makes every gather byte-comparable through the quantized wire.
  run_sharded_differential(/*seed=*/91, /*steps=*/900, /*num_shards=*/2,
                           TransferPrecision::kInt8);
}

TEST(ShardDifferential, FourShardsDeleteHeavyMatchFlatSeed53) {
  MixConfig mix;
  mix.insert = 0.24;
  mix.remove = 0.28;       // delete-heavy: retractions outnumber inserts
  mix.vertex_add = 0.07;
  mix.vertex_remove = 0.06;
  mix.feature = 0.10;
  mix.gather_probe = 0.05;
  mix.shard_compact = 0.07;
  run_sharded_differential(/*seed=*/53, /*steps=*/800, /*num_shards=*/4,
                           TransferPrecision::kFp32, mix);
}

TEST(ShardDifferential, FourShardsFeatureHeavyInt8Seed71) {
  // Feature-heavy mix: feature writes carry most of the traffic, many
  // of them gathered before the next adopt, over the int8 wire.
  MixConfig mix;
  mix.insert = 0.22;
  mix.remove = 0.14;
  mix.vertex_add = 0.05;
  mix.vertex_remove = 0.03;
  mix.feature = 0.28;
  mix.gather_probe = 0.10;
  mix.shard_compact = 0.04;
  run_sharded_differential(/*seed=*/71, /*steps=*/700, /*num_shards=*/4,
                           TransferPrecision::kInt8, mix);
}

}  // namespace
}  // namespace hyscale
