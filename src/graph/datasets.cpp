#include "graph/datasets.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "tensor/init.hpp"

namespace hyscale {

const std::vector<DatasetInfo>& paper_datasets() {
  // Table III of the paper (feature dims f0/f1/f2 as reported).
  static const std::vector<DatasetInfo> kDatasets = {
      {"ogbn-products", 2449029ULL, 61859140ULL, 100, 256, 47, 196615ULL},
      {"ogbn-papers100M", 111059956ULL, 1615685872ULL, 128, 256, 172, 1207179ULL},
      {"MAG240M (homo)", 121751666ULL, 1297748926ULL, 756, 256, 153, 1112392ULL},
  };
  return kDatasets;
}

const DatasetInfo& dataset_info(const std::string& name) {
  for (const auto& info : paper_datasets()) {
    if (info.name == name) return info;
  }
  throw std::out_of_range("dataset_info: unknown dataset '" + name + "'");
}

namespace {

constexpr double kTrainFraction = 0.1;

int scale_for_vertices(VertexId target) {
  int scale = 1;
  while ((VertexId{1} << scale) < target && scale < 30) ++scale;
  return scale;
}

}  // namespace

Dataset materialize_dataset(const std::string& name, const MaterializeOptions& options) {
  const DatasetInfo& info = dataset_info(name);
  Dataset ds;
  ds.info = info;

  RmatParams rmat;
  rmat.scale = scale_for_vertices(options.target_vertices);
  // Preserve the paper dataset's density: directed edge factor |E| / |V|.
  rmat.edge_factor = std::max(2.0, info.mean_degree() / 2.0);
  rmat.seed = options.seed;
  ds.graph = generate_rmat(rmat);

  const VertexId n = ds.graph.num_vertices();
  ds.features.resize(n, info.f0);
  ds.labels.resize(static_cast<std::size_t>(n));

  Xoshiro256 rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  // Labels are degree-bucketed: high-degree hubs concentrate in a few
  // classes, mimicking the skew of product/paper categories.
  for (VertexId v = 0; v < n; ++v) {
    const auto deg = static_cast<double>(ds.graph.degree(v));
    const int bucket = static_cast<int>(std::log2(1.0 + deg));
    ds.labels[static_cast<std::size_t>(v)] =
        (bucket * 7 + static_cast<int>(rng.bounded(3))) % info.f2;
  }

  normal_init(ds.features, 1.0f, options.seed + 1);
  if (options.label_signal) {
    // Inject class-dependent mean shift in a label-indexed coordinate so
    // models can actually learn.
    for (VertexId v = 0; v < n; ++v) {
      const int label = ds.labels[static_cast<std::size_t>(v)];
      const int coord = label % info.f0;
      ds.features.at(v, coord) += 3.0f;
    }
  }

  // Train split: uniform sample of `kTrainFraction` vertices.
  const auto want = static_cast<std::size_t>(kTrainFraction * static_cast<double>(n));
  ds.train_ids.reserve(want);
  for (VertexId v = 0; v < n; ++v) {
    if (rng.uniform() < kTrainFraction) ds.train_ids.push_back(v);
  }
  if (ds.train_ids.empty()) ds.train_ids.push_back(0);
  return ds;
}

Dataset make_community_dataset(int num_classes, VertexId vertices_per_class,
                               int feature_dim, std::uint64_t seed) {
  if (num_classes <= 0 || vertices_per_class <= 0 || feature_dim <= 0)
    throw std::invalid_argument("make_community_dataset: sizes must be positive");

  SbmParams sbm;
  sbm.num_blocks = num_classes;
  sbm.vertices_per_block = vertices_per_class;
  sbm.p_intra = 0.10;
  sbm.p_inter = 0.005;
  sbm.seed = seed;

  Dataset ds;
  ds.graph = generate_sbm(sbm);
  const VertexId n = ds.graph.num_vertices();

  ds.info.name = "community-sbm";
  ds.info.num_vertices = static_cast<std::uint64_t>(n);
  ds.info.num_edges = static_cast<std::uint64_t>(ds.graph.num_edges());
  ds.info.f0 = feature_dim;
  ds.info.f1 = std::max(16, feature_dim / 2);
  ds.info.f2 = num_classes;

  ds.features.resize(n, feature_dim);
  normal_init(ds.features, 1.0f, seed + 11);
  ds.labels.resize(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    const int label = static_cast<int>(v / vertices_per_class);
    ds.labels[static_cast<std::size_t>(v)] = label;
    // Strong class signal on one coordinate per class.
    ds.features.at(v, label % feature_dim) += 2.5f;
  }

  Xoshiro256 rng(seed + 13);
  for (VertexId v = 0; v < n; ++v) {
    if (rng.uniform() < 0.5) ds.train_ids.push_back(v);
  }
  if (ds.train_ids.empty()) ds.train_ids.push_back(0);
  ds.info.train_count = ds.train_ids.size();
  return ds;
}

}  // namespace hyscale
