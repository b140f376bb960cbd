// Tests for sampling/: neighbor sampler, mini-batch invariants and
// source-sorted edge blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "graph/generator.hpp"
#include "sampling/minibatch.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sampling/sorted_edges.hpp"

namespace hyscale {
namespace {

CsrGraph test_graph() {
  RmatParams p;
  p.scale = 9;  // 512 vertices
  p.edge_factor = 8;
  return generate_rmat(p);
}

std::vector<VertexId> some_seeds(const CsrGraph& g, std::size_t count) {
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < g.num_vertices() && seeds.size() < count; ++v) {
    if (g.degree(v) > 0) seeds.push_back(v);
  }
  return seeds;
}

struct SamplerCase {
  std::vector<int> fanouts;
  std::size_t num_seeds;
};

class NeighborSamplerTest : public ::testing::TestWithParam<SamplerCase> {};

TEST_P(NeighborSamplerTest, ProducesValidChainedBlocks) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, GetParam().fanouts, 1);
  const MiniBatch batch = sampler.sample(some_seeds(g, GetParam().num_seeds));
  EXPECT_TRUE(batch.validate());
  EXPECT_EQ(batch.num_layers(), static_cast<int>(GetParam().fanouts.size()));
}

TEST_P(NeighborSamplerTest, FanoutCapsDegrees) {
  const CsrGraph g = test_graph();
  const auto& fanouts = GetParam().fanouts;
  NeighborSampler sampler(g, fanouts, 2);
  const MiniBatch batch = sampler.sample(some_seeds(g, GetParam().num_seeds));
  for (std::size_t l = 0; l < batch.blocks.size(); ++l) {
    const auto& block = batch.blocks[l];
    for (std::int64_t d = 0; d < block.num_dst; ++d) {
      const EdgeId sampled = block.indptr[static_cast<std::size_t>(d) + 1] -
                             block.indptr[static_cast<std::size_t>(d)];
      EXPECT_LE(sampled, fanouts[l]);
      EXPECT_LE(sampled, g.degree(block.src_nodes[static_cast<std::size_t>(d)]));
    }
  }
}

TEST_P(NeighborSamplerTest, SampledEdgesAreRealEdges) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, GetParam().fanouts, 3);
  const MiniBatch batch = sampler.sample(some_seeds(g, GetParam().num_seeds));
  for (const auto& block : batch.blocks) {
    for (std::int64_t d = 0; d < block.num_dst; ++d) {
      const VertexId dst_global = block.src_nodes[static_cast<std::size_t>(d)];
      const auto neighbors = g.neighbors(dst_global);
      for (EdgeId e = block.indptr[static_cast<std::size_t>(d)];
           e < block.indptr[static_cast<std::size_t>(d) + 1]; ++e) {
        const VertexId src_global =
            block.src_nodes[static_cast<std::size_t>(block.indices[static_cast<std::size_t>(e)])];
        EXPECT_TRUE(std::binary_search(neighbors.begin(), neighbors.end(), src_global));
      }
    }
  }
}

TEST_P(NeighborSamplerTest, NoDuplicateNeighborsPerDestination) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, GetParam().fanouts, 4);
  const MiniBatch batch = sampler.sample(some_seeds(g, GetParam().num_seeds));
  for (const auto& block : batch.blocks) {
    for (std::int64_t d = 0; d < block.num_dst; ++d) {
      std::set<std::int64_t> seen;
      for (EdgeId e = block.indptr[static_cast<std::size_t>(d)];
           e < block.indptr[static_cast<std::size_t>(d) + 1]; ++e) {
        EXPECT_TRUE(seen.insert(block.indices[static_cast<std::size_t>(e)]).second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, NeighborSamplerTest,
                         ::testing::Values(SamplerCase{{25, 10}, 32},
                                           SamplerCase{{5}, 16},
                                           SamplerCase{{15, 10, 5}, 24},
                                           SamplerCase{{2, 2}, 64},
                                           SamplerCase{{1, 1, 1, 1}, 8}));

TEST(NeighborSampler, DeterministicPerSeed) {
  const CsrGraph g = test_graph();
  NeighborSampler a(g, {5, 5}, 7);
  NeighborSampler b(g, {5, 5}, 7);
  const auto seeds = some_seeds(g, 16);
  const MiniBatch ba = a.sample(seeds);
  const MiniBatch bb = b.sample(seeds);
  ASSERT_EQ(ba.blocks.size(), bb.blocks.size());
  for (std::size_t l = 0; l < ba.blocks.size(); ++l) {
    EXPECT_EQ(ba.blocks[l].src_nodes, bb.blocks[l].src_nodes);
    EXPECT_EQ(ba.blocks[l].indices, bb.blocks[l].indices);
  }
}

TEST(NeighborSampler, ConsecutiveCallsDiffer) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {3, 3}, 7);
  const auto seeds = some_seeds(g, 16);
  const MiniBatch a = sampler.sample(seeds);
  const MiniBatch b = sampler.sample(seeds);
  // Same seeds, advancing stream: almost surely different frontiers.
  EXPECT_NE(a.blocks.front().src_nodes, b.blocks.front().src_nodes);
}

TEST(NeighborSampler, DstPrefixConvention) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {4, 4}, 5);
  const auto seeds = some_seeds(g, 10);
  const MiniBatch batch = sampler.sample(seeds);
  // Top block's dst prefix == seeds.
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(batch.blocks.back().src_nodes[i], seeds[i]);
  }
}

TEST(NeighborSampler, RejectsBadInputs) {
  const CsrGraph g = test_graph();
  EXPECT_THROW(NeighborSampler(g, {}, 1), std::invalid_argument);
  EXPECT_THROW(NeighborSampler(g, {0}, 1), std::invalid_argument);
  NeighborSampler sampler(g, {2}, 1);
  EXPECT_THROW(sampler.sample({}), std::invalid_argument);
  EXPECT_THROW(sampler.sample({g.num_vertices()}), std::invalid_argument);
}

TEST(NeighborSampler, StatsMatchBlocks) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {25, 10}, 6);
  const MiniBatch batch = sampler.sample(some_seeds(g, 20));
  const BatchStats stats = batch.stats();
  ASSERT_EQ(stats.vertices_per_layer.size(), 3u);
  ASSERT_EQ(stats.edges_per_layer.size(), 2u);
  EXPECT_EQ(stats.vertices_per_layer[0], batch.blocks[0].num_src());
  EXPECT_EQ(stats.vertices_per_layer[2], static_cast<std::int64_t>(batch.seeds.size()));
  EXPECT_EQ(stats.edges_per_layer[0], batch.blocks[0].num_edges());
  EXPECT_EQ(stats.input_vertices(), batch.blocks[0].num_src());
}

TEST(NeighborSampler, ExpectedStatsGrowAndCap) {
  const auto stats = NeighborSampler::expected_stats(1024, {25, 10}, 50.0, 1000000);
  ASSERT_EQ(stats.vertices_per_layer.size(), 3u);
  EXPECT_EQ(stats.vertices_per_layer[2], 1024);
  EXPECT_GT(stats.vertices_per_layer[1], stats.vertices_per_layer[2]);
  EXPECT_GT(stats.vertices_per_layer[0], stats.vertices_per_layer[1]);
  // Cap at dataset size.
  const auto capped = NeighborSampler::expected_stats(1024, {25, 10}, 50.0, 2000);
  EXPECT_LE(capped.vertices_per_layer[0], 2000);
}

TEST(NeighborSampler, ExpectedStatsUseMeanDegreeWhenSmall) {
  // fanout 25 but mean degree 3: effective fanout is 3.
  const auto stats = NeighborSampler::expected_stats(100, {25}, 3.0, 1000000);
  EXPECT_EQ(stats.edges_per_layer[0], 300);
}

TEST(BatchStats, SumAggregatesElementwise) {
  BatchStats a, b;
  a.vertices_per_layer = {10, 5};
  a.edges_per_layer = {20};
  b.vertices_per_layer = {1, 2};
  b.edges_per_layer = {3};
  const BatchStats s = BatchStats::sum({a, b});
  EXPECT_EQ(s.vertices_per_layer[0], 11);
  EXPECT_EQ(s.edges_per_layer[0], 23);
  EXPECT_EQ(s.total_edges(), 23);
}

TEST(FullSampler, TakesAllNeighbors) {
  const CsrGraph g = test_graph();
  const auto seeds = some_seeds(g, 4);
  const MiniBatch batch = sample_full(g, seeds, 1);
  const auto& block = batch.blocks.front();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(block.indptr[i + 1] - block.indptr[i], g.degree(seeds[i]));
  }
}

// FNV-1a over every block's indptr, indices, src_nodes and src_degrees:
// one number that moves if any draw, any dedup slot or any degree does.
std::uint64_t fingerprint(const MiniBatch& batch) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(x >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const LayerBlock& block : batch.blocks) {
    mix(block.num_dst);
    for (const auto* part : {&block.indptr, &block.indices, &block.src_nodes, &block.src_degrees}) {
      mix(static_cast<std::int64_t>(part->size()));
      for (std::int64_t x : *part) mix(x);
    }
  }
  return h;
}

// Golden draw sequence.  The values were recorded from the sampler's
// own partial Fisher-Yates before it moved onto FanoutSamplerCore, so
// the move (and any later one) must reproduce every draw, every
// dedup slot and every degree exactly.  The OverlaySampler equivalence
// tests cannot catch a change here: both samplers share one core.
TEST(NeighborSampler, GoldenDrawSequence) {
  const CsrGraph g = test_graph();
  const auto seeds = some_seeds(g, 32);
  struct Case {
    std::vector<int> fanouts;
    std::uint64_t seed;
    std::uint64_t first, second, after_reseed;
  };
  const Case cases[] = {
      {{25, 10}, 1, 2856274986083137301ULL, 15656665842491791628ULL, 15572344200544434047ULL},
      {{25, 10}, 42, 3326946358038950273ULL, 10694876265062567460ULL, 7610181328248966044ULL},
      {{4, 3, 2}, 1, 11579995306592064530ULL, 63407450026205848ULL, 4080656793801663025ULL},
      {{4, 3, 2}, 42, 18264808399405362666ULL, 10318680899778773588ULL, 9204593452797198298ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "fanouts " << c.fanouts.size() << " seed " << c.seed);
    NeighborSampler sampler(g, c.fanouts, c.seed);
    EXPECT_EQ(fingerprint(sampler.sample(seeds)), c.first);
    EXPECT_EQ(fingerprint(sampler.sample(seeds)), c.second);
    sampler.reseed(c.seed * 7 + 3);
    EXPECT_EQ(fingerprint(sampler.sample(seeds)), c.after_reseed);
  }
  EXPECT_EQ(fingerprint(sample_full(g, seeds, 2)), 17193893263695318164ULL);
}

TEST(SortedEdges, SortedBySourceWithCorrectCounts) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {10, 5}, 9);
  const MiniBatch batch = sampler.sample(some_seeds(g, 24));
  for (const auto& block : batch.blocks) {
    const SortedEdgeBlock sorted = sort_edges_by_source(block);
    EXPECT_EQ(sorted.num_edges(), block.num_edges());
    EXPECT_TRUE(std::is_sorted(sorted.src.begin(), sorted.src.end()));
    // unique_sources matches a direct count.
    std::unordered_set<std::int64_t> uniq(block.indices.begin(), block.indices.end());
    EXPECT_EQ(sorted.unique_sources, static_cast<std::int64_t>(uniq.size()));
    // The FPGA reuse claim: reads with duplication <= reads without.
    EXPECT_LE(sorted.reads_with_reuse(), sorted.reads_without_reuse());
    EXPECT_GE(sorted.max_run, sorted.num_edges() > 0 ? 1 : 0);
  }
}

TEST(SortedEdges, MaxRunOnKnownBlock) {
  LayerBlock block;
  block.num_dst = 3;
  block.src_nodes = {10, 11, 12, 13};
  block.indptr = {0, 2, 3, 4};
  block.indices = {3, 3, 3, 0};  // edges: (3->d0) x2, (3->d1), (0->d2)
  ASSERT_TRUE(block.validate());
  const SortedEdgeBlock sorted = sort_edges_by_source(block);
  EXPECT_EQ(sorted.unique_sources, 2);
  EXPECT_EQ(sorted.max_run, 3);
}

TEST(LayerBlock, ValidateCatchesCorruption) {
  LayerBlock block;
  block.num_dst = 1;
  block.src_nodes = {0, 1};
  block.indptr = {0, 1};
  block.indices = {5};  // out of range
  EXPECT_FALSE(block.validate());
  block.indices = {1};
  EXPECT_TRUE(block.validate());
  block.indptr = {1, 0};  // non-monotone / wrong front
  EXPECT_FALSE(block.validate());
}

}  // namespace
}  // namespace hyscale
