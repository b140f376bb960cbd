// Tests for graph/: CSR, builder, generators, reordering, I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>

#include "common/rng.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generator.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "corrupt_file.hpp"

namespace hyscale {
namespace {

CsrGraph triangle_plus_leaf() {
  // 0-1, 1-2, 2-0, 2-3 (undirected).
  return build_csr(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
}

TEST(Csr, BasicAccessors) {
  const CsrGraph g = triangle_plus_leaf();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 8);  // symmetrized
  EXPECT_EQ(g.degree(2), 3);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_EQ(g.max_degree(), 3);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 2.0);
  EXPECT_TRUE(g.validate());
}

TEST(Csr, NeighborsSortedAndCorrect) {
  const CsrGraph g = triangle_plus_leaf();
  const auto n2 = g.neighbors(2);
  const std::vector<VertexId> expected = {0, 1, 3};
  EXPECT_TRUE(std::equal(n2.begin(), n2.end(), expected.begin(), expected.end()));
}

TEST(Csr, ConstructorRejectsCorruptInputs) {
  EXPECT_THROW(CsrGraph({}, {}), std::invalid_argument);
  EXPECT_THROW(CsrGraph({1, 2}, {0}), std::invalid_argument);   // indptr[0] != 0
  EXPECT_THROW(CsrGraph({0, 2}, {0}), std::invalid_argument);   // back mismatch
}

TEST(Csr, EmptyGraph) {
  const CsrGraph g(std::vector<EdgeId>{0}, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.validate());
  EXPECT_EQ(g.max_degree(), 0);
}

/// The sort-based build build_csr replaced, kept as the oracle: double
/// the list when symmetrising, drop self loops, sort every pair, drop
/// repeats, then count.
CsrGraph sort_oracle_build(VertexId n, std::vector<std::pair<VertexId, VertexId>> edges,
                           const EdgeListOptions& options) {
  if (options.symmetrize) {
    const std::size_t original = edges.size();
    edges.reserve(original * 2);
    for (std::size_t i = 0; i < original; ++i) edges.emplace_back(edges[i].second, edges[i].first);
  }
  if (options.remove_self_loops) {
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [](const auto& e) { return e.first == e.second; }),
                edges.end());
  }
  std::sort(edges.begin(), edges.end());
  if (options.deduplicate) edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<EdgeId> indptr(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : edges) ++indptr[static_cast<std::size_t>(e.first) + 1];
  for (std::size_t i = 1; i < indptr.size(); ++i) indptr[i] += indptr[i - 1];
  std::vector<VertexId> indices;
  indices.reserve(edges.size());
  for (const auto& e : edges) indices.push_back(e.second);
  return CsrGraph(std::move(indptr), std::move(indices));
}

/// Every EdgeListOptions combination: bit 0 symmetrize, bit 1 remove
/// self loops, bit 2 deduplicate.
EdgeListOptions options_from_bits(int bits) {
  EdgeListOptions options;
  options.symmetrize = (bits & 1) != 0;
  options.remove_self_loops = (bits & 2) != 0;
  options.deduplicate = (bits & 4) != 0;
  return options;
}

TEST(Builder, MatchesSortOracle) {
  Xoshiro256 rng(2024);
  // Hand-picked degenerate inputs first, then seeded random lists.
  std::vector<std::pair<VertexId, std::vector<std::pair<VertexId, VertexId>>>> cases = {
      {0, {}}, {1, {}}, {5, {}}, {1, {{0, 0}, {0, 0}}}, {3, {{2, 2}, {0, 1}, {1, 0}, {0, 1}}}};
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<VertexId>(1 + rng.bounded(300));
    const auto m = static_cast<std::size_t>(rng.bounded(4000));
    // A small id range forces heavy duplicates; every fifth list also
    // sends most edges through one hub, and every seventh adds self loops.
    const auto range = static_cast<std::uint64_t>(trial % 3 == 0 ? std::min<VertexId>(n, 6) : n);
    const auto hub = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (std::size_t e = 0; e < m; ++e) {
      VertexId u = static_cast<VertexId>(rng.bounded(range));
      VertexId v = static_cast<VertexId>(rng.bounded(range));
      if (trial % 5 == 0 && rng.bounded(10) < 8) (rng.bounded(2) == 0 ? u : v) = hub;
      if (trial % 7 == 0 && rng.bounded(4) == 0) v = u;
      edges.emplace_back(u, v);
    }
    cases.emplace_back(n, std::move(edges));
  }
  // One list past the parallel grain, so the pooled bucket sort runs too:
  // an R-MAT-like skew with low ids as hubs.
  {
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (int e = 0; e < 60000; ++e) {
      const auto u = static_cast<VertexId>(rng.bounded(1 + rng.bounded(2000)));
      edges.emplace_back(u, static_cast<VertexId>(rng.bounded(2000)));
    }
    cases.emplace_back(2000, std::move(edges));
  }

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& [n, edges] = cases[c];
    for (int bits = 0; bits < 8; ++bits) {
      const EdgeListOptions options = options_from_bits(bits);
      const CsrGraph got = build_csr(n, edges, options);
      const CsrGraph want = sort_oracle_build(n, edges, options);
      ASSERT_EQ(got.indptr(), want.indptr()) << "case " << c << " options " << bits;
      ASSERT_EQ(got.indices(), want.indices()) << "case " << c << " options " << bits;
    }
  }
}

TEST(Builder, RemovesSelfLoopsAndDuplicates) {
  const CsrGraph g = build_csr(3, {{0, 0}, {0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(g.num_edges(), 2);  // only 0-1 both ways
  EXPECT_EQ(g.degree(2), 0);
}

TEST(Builder, KeepsDirectedWhenAsked) {
  EdgeListOptions opts;
  opts.symmetrize = false;
  const CsrGraph g = build_csr(3, {{0, 1}, {0, 2}}, opts);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 0);
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(build_csr(2, {{0, 2}}), std::invalid_argument);
  EXPECT_THROW(build_csr(2, {{-1, 0}}), std::invalid_argument);
  EXPECT_THROW(build_csr(-1, {}), std::invalid_argument);
}

// The streaming compactor merges base + delta edge lists through
// build_csr, and the feature cache ranks by degree_order: both must stay
// exact on the awkward shapes real deltas produce: isolated vertices
// (beyond the last edge endpoint) and duplicated edges in the union.

TEST(Builder, IsolatedAndDuplicateEdgeVertices) {
  // Vertices 4..6 isolated; 0-1 appears three times (both orientations).
  const CsrGraph g = build_csr(7, {{0, 1}, {1, 0}, {0, 1}, {2, 3}});
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_EQ(g.num_edges(), 4);  // 0-1 and 2-3, each both ways
  EXPECT_EQ(g.degree(0), 1);
  for (VertexId v = 4; v < 7; ++v) EXPECT_EQ(g.degree(v), 0);
  EXPECT_TRUE(g.validate());
}

TEST(Builder, CompactionStyleMergeEqualsOneShotBuild) {
  // Incremental: build base, then rebuild from base-CSR + delta edges
  // (what StreamingGraph::compact does) — must equal building the union
  // in one shot, including duplicate-heavy deltas and isolated tails.
  const std::vector<std::pair<VertexId, VertexId>> base_edges = {{0, 1}, {1, 2}, {2, 0}};
  const std::vector<std::pair<VertexId, VertexId>> delta_edges = {
      {0, 3}, {3, 0}, {0, 1},  // duplicate of a base edge
      {5, 6}};
  const CsrGraph base = build_csr(8, base_edges);

  std::vector<std::pair<VertexId, VertexId>> merged_edges;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    for (VertexId u : base.neighbors(v)) merged_edges.emplace_back(v, u);
  }
  merged_edges.insert(merged_edges.end(), delta_edges.begin(), delta_edges.end());
  const CsrGraph merged = build_csr(8, merged_edges);

  std::vector<std::pair<VertexId, VertexId>> union_edges = base_edges;
  union_edges.insert(union_edges.end(), delta_edges.begin(), delta_edges.end());
  const CsrGraph one_shot = build_csr(8, union_edges);

  EXPECT_EQ(merged.indptr(), one_shot.indptr());
  EXPECT_EQ(merged.indices(), one_shot.indices());
  EXPECT_EQ(merged.degree(7), 0);  // isolated tail survives
}

TEST(Reorder, DegreeOrderWithIsolatedAndDuplicateEdgeVertices) {
  // degree_order must stay a permutation listing degrees in descending
  // order, stable for ties, with isolated vertices last.
  const CsrGraph g = build_csr(9, {{0, 1}, {1, 0}, {0, 1}, {0, 2}, {0, 3}, {2, 3}, {4, 5}});
  ASSERT_EQ(g.degree(6), 0);  // isolated vertices in the middle of the range
  const std::vector<VertexId> perm = degree_order(g);
  std::vector<VertexId> ids = perm;
  std::sort(ids.begin(), ids.end());
  std::vector<VertexId> identity(9);
  std::iota(identity.begin(), identity.end(), VertexId{0});
  EXPECT_EQ(ids, identity);
  for (std::size_t i = 1; i < perm.size(); ++i) {
    EXPECT_GE(g.degree(perm[i - 1]), g.degree(perm[i]));
    if (g.degree(perm[i - 1]) == g.degree(perm[i])) EXPECT_LT(perm[i - 1], perm[i]);
  }
  for (std::size_t i = perm.size() - 3; i < perm.size(); ++i) EXPECT_EQ(g.degree(perm[i]), 0);

  RmatParams p;
  p.scale = 7;
  p.edge_factor = 4;
  const CsrGraph rmat = generate_rmat(p);
  EXPECT_EQ(rmat.degree(degree_order(rmat).front()), rmat.max_degree());
}

TEST(Generator, RmatDeterministicPerSeed) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  const CsrGraph a = generate_rmat(p);
  const CsrGraph b = generate_rmat(p);
  EXPECT_EQ(a.indices(), b.indices());
  p.seed = 2;
  const CsrGraph c = generate_rmat(p);
  EXPECT_NE(a.indices(), c.indices());
}

TEST(Generator, RmatShape) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  const CsrGraph g = generate_rmat(p);
  EXPECT_EQ(g.num_vertices(), 1024);
  EXPECT_TRUE(g.validate());
  // Symmetrized and deduplicated: at most 2x requested edges.
  EXPECT_LE(g.num_edges(), 2 * 8 * 1024);
  EXPECT_GT(g.num_edges(), 4 * 1024);
}

TEST(Generator, RmatDegreeSkew) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const CsrGraph g = generate_rmat(p);
  // Power-law-ish: the max degree far exceeds the mean.
  EXPECT_GT(static_cast<double>(g.max_degree()), 10.0 * g.mean_degree());
}

TEST(Generator, RmatIntegerThresholdsMatchDoubleCompare) {
  // The walk generate_rmat replaced: one double compare chain per level.
  auto double_compare_rmat = [](const RmatParams& p) {
    const VertexId n = VertexId{1} << p.scale;
    const auto target = static_cast<std::size_t>(p.edge_factor * static_cast<double>(n));
    Xoshiro256 rng(p.seed);
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (std::size_t e = 0; e < target; ++e) {
      VertexId u = 0, v = 0;
      for (int level = 0; level < p.scale; ++level) {
        const double r = rng.uniform();
        u <<= 1;
        v <<= 1;
        if (r < p.a) {
        } else if (r < p.a + p.b) {
          v |= 1;
        } else if (r < p.a + p.b + p.c) {
          u |= 1;
        } else {
          u |= 1;
          v |= 1;
        }
      }
      edges.emplace_back(u, v);
    }
    EdgeListOptions options;
    options.symmetrize = p.symmetrize;
    return sort_oracle_build(n, std::move(edges), options);
  };
  RmatParams dyadic;  // every threshold times 2^53 is a whole number
  dyadic.a = 0.5;
  dyadic.b = 0.25;
  dyadic.c = 0.125;
  RmatParams defaults;
  RmatParams directed;
  directed.symmetrize = false;
  directed.seed = 101;
  for (RmatParams p : {dyadic, defaults, directed}) {
    p.scale = 12;
    p.edge_factor = 6;
    const CsrGraph got = generate_rmat(p);
    const CsrGraph want = double_compare_rmat(p);
    EXPECT_EQ(got.indptr(), want.indptr()) << "a=" << p.a << " seed=" << p.seed;
    EXPECT_EQ(got.indices(), want.indices()) << "a=" << p.a << " seed=" << p.seed;
  }
}

TEST(Generator, RmatRejectsBadParameters) {
  RmatParams p;
  p.scale = 0;
  EXPECT_THROW(generate_rmat(p), std::invalid_argument);
  p.scale = 8;
  p.a = 0.9;
  p.b = 0.2;  // a+b+c > 1
  EXPECT_THROW(generate_rmat(p), std::invalid_argument);
}

TEST(Generator, SbmBlocksDenserInside) {
  SbmParams p;
  p.vertices_per_block = 64;
  p.num_blocks = 3;
  const CsrGraph g = generate_sbm(p);
  EXPECT_EQ(g.num_vertices(), 192);
  EdgeId intra = 0, inter = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (u / p.vertices_per_block == v / p.vertices_per_block) ++intra; else ++inter;
    }
  }
  EXPECT_GT(intra, 4 * inter);
}

TEST(Reorder, DegreeOrderDescending) {
  const CsrGraph g = triangle_plus_leaf();
  const auto perm = degree_order(g);
  EXPECT_EQ(perm.front(), 2);  // degree 3
  EXPECT_EQ(perm.back(), 3);   // degree 1
}

TEST(GraphIo, RoundTrip) {
  RmatParams p;
  p.scale = 8;
  const CsrGraph g = generate_rmat(p);
  const std::string path = "/tmp/hyscale_io_test.bin";
  save_csr(g, path);
  const CsrGraph loaded = load_csr(path);
  EXPECT_EQ(loaded.indptr(), g.indptr());
  EXPECT_EQ(loaded.indices(), g.indices());
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_csr("/tmp/does_not_exist_hyscale.bin"), std::runtime_error);
}

TEST(GraphIo, CorruptHeaderThrows) {
  const std::string path = "/tmp/hyscale_io_corrupt.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[32] = "not a graph";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW(load_csr(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- seeded corruption harness: every malformed file ends in a
// std::runtime_error naming the path, never an abort, a bad_alloc or an
// exception from CsrGraph's constructor.

namespace corrupt = testing_corrupt;

constexpr std::size_t kCsrHeaderBytes = 24;  // magic, n, m

/// A valid save_csr file of a scale-5 RMAT graph (seed 11).
std::vector<char> valid_csr_bytes(const std::string& path) {
  RmatParams p;
  p.scale = 5;
  p.seed = 11;
  save_csr(generate_rmat(p), path);
  return corrupt::read_file(path);
}

std::string csr_escape(const std::string& path, const std::vector<char>& bytes, bool may_load) {
  corrupt::write_file(path, bytes);
  return corrupt::escape_of([&] { (void)load_csr(path); }, may_load);
}

TEST(GraphIoCorruption, EveryTruncationThrows) {
  const std::string path = ::testing::TempDir() + "hyscale_io_truncate.bin";
  const std::vector<char> valid = valid_csr_bytes(path);
  corrupt::EscapeLog log;
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const std::vector<char> cut(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    log.record("truncated to " + std::to_string(len), csr_escape(path, cut, false));
  }
  EXPECT_TRUE(log.escapes.empty()) << log.summary();
  std::remove(path.c_str());
}

TEST(GraphIoCorruption, EveryHeaderBitFlipThrows) {
  const std::string path = ::testing::TempDir() + "hyscale_io_header_flip.bin";
  const std::vector<char> valid = valid_csr_bytes(path);
  corrupt::EscapeLog log;
  for (std::size_t bit = 0; bit < 8 * kCsrHeaderBytes; ++bit) {
    log.record("header bit " + std::to_string(bit),
               csr_escape(path, corrupt::flip_bit(valid, bit), false));
  }
  EXPECT_TRUE(log.escapes.empty()) << log.summary();
  std::remove(path.c_str());
}

TEST(GraphIoCorruption, OversizedSizesThrowBeforeAllocating) {
  const std::string path = ::testing::TempDir() + "hyscale_io_oversized.bin";
  const std::vector<char> valid = valid_csr_bytes(path);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  corrupt::EscapeLog log;
  for (const std::uint64_t size : {std::uint64_t{1} << 44, kMax - 1, kMax}) {
    log.record("n=" + std::to_string(size),
               csr_escape(path, corrupt::with_u64(valid, 8, size), false));
    log.record("m=" + std::to_string(size),
               csr_escape(path, corrupt::with_u64(valid, 16, size), false));
  }
  // A bare 24-byte header that claims 2^44 vertices.
  const std::vector<char> header_only(valid.begin(),
                                      valid.begin() + static_cast<std::ptrdiff_t>(kCsrHeaderBytes));
  log.record("header-only n=2^44",
             csr_escape(path, corrupt::with_u64(header_only, 8, std::uint64_t{1} << 44), false));
  EXPECT_TRUE(log.escapes.empty()) << log.summary();
  std::remove(path.c_str());
}

TEST(GraphIoCorruption, AppendedByteThrows) {
  const std::string path = ::testing::TempDir() + "hyscale_io_appended.bin";
  std::vector<char> bytes = valid_csr_bytes(path);
  bytes.push_back('\0');
  EXPECT_EQ(csr_escape(path, bytes, false), "");
  std::remove(path.c_str());
}

TEST(GraphIoCorruption, PayloadBitFlipsLoadOrThrowRuntimeError) {
  // Format v1 has no checksum, so a flipped index may still describe a
  // valid graph (load_csr validates whatever it returns); otherwise the
  // flip must be rejected cleanly.  A seeded sample of payload bits.
  const std::string path = ::testing::TempDir() + "hyscale_io_payload_flip.bin";
  const std::vector<char> valid = valid_csr_bytes(path);
  corrupt::EscapeLog log;
  Xoshiro256 rng(16);
  for (int pick = 0; pick < 1024; ++pick) {
    const std::size_t bit =
        8 * kCsrHeaderBytes + rng.bounded(8 * (valid.size() - kCsrHeaderBytes));
    log.record("payload bit " + std::to_string(bit),
               csr_escape(path, corrupt::flip_bit(valid, bit), true));
  }
  EXPECT_TRUE(log.escapes.empty()) << log.summary();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyscale
