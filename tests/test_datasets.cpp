// Tests for graph/datasets: Table III registry + synthetic materialisation.
#include <gtest/gtest.h>

#include <set>

#include "graph/datasets.hpp"

namespace hyscale {
namespace {

TEST(Datasets, TableThreeRegistry) {
  const auto& all = paper_datasets();
  ASSERT_EQ(all.size(), 3u);

  const DatasetInfo& products = dataset_info("ogbn-products");
  EXPECT_EQ(products.num_vertices, 2449029ULL);
  EXPECT_EQ(products.num_edges, 61859140ULL);
  EXPECT_EQ(products.f0, 100);
  EXPECT_EQ(products.f1, 256);
  EXPECT_EQ(products.f2, 47);

  const DatasetInfo& papers = dataset_info("ogbn-papers100M");
  EXPECT_EQ(papers.num_vertices, 111059956ULL);
  EXPECT_EQ(papers.num_edges, 1615685872ULL);
  EXPECT_EQ(papers.f0, 128);
  EXPECT_EQ(papers.f2, 172);

  const DatasetInfo& mag = dataset_info("MAG240M (homo)");
  EXPECT_EQ(mag.num_edges, 1297748926ULL);
  EXPECT_EQ(mag.f0, 756);
  EXPECT_EQ(mag.f2, 153);
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(dataset_info("ogbn-nope"), std::out_of_range);
}

TEST(Datasets, DerivedStatistics) {
  const DatasetInfo& papers = dataset_info("ogbn-papers100M");
  EXPECT_NEAR(papers.mean_degree(), 14.55, 0.05);
  // 111M x 128 x 4 B ~ 56.9 GB of features.
  EXPECT_NEAR(papers.feature_bytes() / 1e9, 56.9, 0.2);
  EXPECT_GT(papers.train_count, 1000000ULL);
}

TEST(Datasets, MaterializePreservesPaperInfoButScalesGraph) {
  MaterializeOptions options;
  options.target_vertices = 1 << 10;
  const Dataset ds = materialize_dataset("ogbn-products", options);
  EXPECT_EQ(ds.info.num_vertices, 2449029ULL);  // paper-scale metadata intact
  EXPECT_EQ(ds.num_vertices(), 1024);           // materialised graph scaled
  EXPECT_EQ(ds.features.rows(), 1024);
  EXPECT_EQ(ds.features.cols(), 100);
  EXPECT_EQ(ds.labels.size(), 1024u);
  EXPECT_FALSE(ds.train_ids.empty());
  EXPECT_TRUE(ds.graph.validate());
}

TEST(Datasets, MaterializeDeterministic) {
  MaterializeOptions options;
  options.target_vertices = 512;
  const Dataset a = materialize_dataset("ogbn-papers100M", options);
  const Dataset b = materialize_dataset("ogbn-papers100M", options);
  EXPECT_EQ(a.graph.indices(), b.graph.indices());
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.train_ids, b.train_ids);
}

TEST(Datasets, LabelsWithinClassRange) {
  MaterializeOptions options;
  options.target_vertices = 512;
  const Dataset ds = materialize_dataset("ogbn-papers100M", options);
  for (int label : ds.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, ds.info.f2);
  }
  for (VertexId v : ds.train_ids) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, ds.num_vertices());
  }
}

TEST(Datasets, DensityTracksPaperDataset) {
  MaterializeOptions options;
  options.target_vertices = 1 << 12;
  const Dataset ds = materialize_dataset("ogbn-products", options);
  // ogbn-products mean degree ~25; the scaled graph should be in the same
  // regime (symmetrization/dedup move it somewhat).
  EXPECT_GT(ds.graph.mean_degree(), 8.0);
  EXPECT_LT(ds.graph.mean_degree(), 60.0);
}

/// FNV-1a over the bytes of every array a materialised dataset holds.
std::uint64_t dataset_checksum(const Dataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  auto mix_vector = [&mix](const auto& v) { mix(v.data(), v.size() * sizeof(v[0])); };
  mix_vector(ds.graph.indptr());
  mix_vector(ds.graph.indices());
  mix(ds.features.data(), ds.features.flat().size() * sizeof(float));
  mix_vector(ds.labels);
  mix_vector(ds.train_ids);
  return h;
}

TEST(Datasets, MaterializeMatchesParentChecksum) {
  // The constants were computed by the sort-based CSR build, the
  // double-compare R-MAT walk and the one-normal()-per-element feature
  // fill that the O(E) versions replaced: any change to the bytes a seed
  // materialises fails here.  Seed 101 is the benchmark's held-out seed.
  struct Case {
    const char* name;
    VertexId vertices;
    std::uint64_t seed;
    std::uint64_t checksum;
  };
  for (const Case& c : {Case{"ogbn-products", VertexId{1} << 16, 1, 0x80518bb450f6e3c8ULL},
                        Case{"ogbn-products", VertexId{1} << 16, 101, 0x7f6cc6d46206a983ULL},
                        Case{"ogbn-papers100M", VertexId{1} << 12, 1, 0xd1eed7eb58b00fc4ULL}}) {
    MaterializeOptions options;
    options.target_vertices = c.vertices;
    options.seed = c.seed;
    EXPECT_EQ(dataset_checksum(materialize_dataset(c.name, options)), c.checksum)
        << c.name << " at " << c.vertices << " vertices, seed " << c.seed;
  }
  EXPECT_EQ(dataset_checksum(make_community_dataset(4, 256, 32, 7)), 0x65904b7d5677d1a3ULL);
}

TEST(Datasets, CommunityDatasetHasCleanStructure) {
  const Dataset ds = make_community_dataset(4, 64, 16, 7);
  EXPECT_EQ(ds.num_vertices(), 256);
  EXPECT_EQ(ds.info.f2, 4);
  std::set<int> labels(ds.labels.begin(), ds.labels.end());
  EXPECT_EQ(labels.size(), 4u);
  // Labels follow block id.
  EXPECT_EQ(ds.labels[0], 0);
  EXPECT_EQ(ds.labels[255], 3);
  EXPECT_THROW(make_community_dataset(0, 10, 4, 1), std::invalid_argument);
}

}  // namespace
}  // namespace hyscale
