// Dataset registry mirroring Table III of the paper, plus synthetic
// instantiation.
//
// Two views of every dataset coexist:
//   * `DatasetInfo` carries the *paper-scale* statistics (|V|, |E|,
//     feature dims f0/f1/f2) that feed the performance model and the
//     benchmark harnesses — these are the numbers that determine stage
//     times in Eqs. 7-13;
//   * `Dataset` is a *materialised* (optionally scaled-down) synthetic
//     graph with real features and labels, used wherever actual numerics
//     run (training loops, convergence tests, sampler statistics).
// The scale factor shrinks |V| while preserving the degree distribution
// (RMAT parameters fixed), so sampled mini-batch shapes per seed vertex
// are statistically unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/tensor.hpp"

namespace hyscale {

struct DatasetInfo {
  std::string name;
  std::uint64_t num_vertices = 0;  ///< paper-scale |V|
  std::uint64_t num_edges = 0;     ///< paper-scale |E| (directed count as reported)
  int f0 = 0;  ///< input feature length
  int f1 = 0;  ///< hidden feature length
  int f2 = 0;  ///< output length (number of classes)
  /// Training-split size (OGB official splits); determines the number of
  /// mini-batch iterations per epoch.
  std::uint64_t train_count = 0;

  /// Bytes of the full single-precision feature matrix |V| * f0 * 4.
  double feature_bytes() const {
    return static_cast<double>(num_vertices) * f0 * 4.0;
  }
  double mean_degree() const {
    return num_vertices == 0 ? 0.0
                             : static_cast<double>(num_edges) / static_cast<double>(num_vertices);
  }
};

/// Table III rows: ogbn-products, ogbn-papers100M, MAG240M (homo).
const std::vector<DatasetInfo>& paper_datasets();

/// Lookup by name; throws std::out_of_range on unknown name.
const DatasetInfo& dataset_info(const std::string& name);

/// A materialised dataset: topology + features + labels + train split.
struct Dataset {
  DatasetInfo info;          ///< paper-scale statistics (for cost models)
  CsrGraph graph;            ///< materialised (scaled) topology
  Tensor features;           ///< [num_materialised_vertices, f0]
  std::vector<int> labels;   ///< class id per vertex, in [0, f2)
  std::vector<VertexId> train_ids;  ///< training seed vertices

  VertexId num_vertices() const { return graph.num_vertices(); }
};

struct MaterializeOptions {
  /// Approximate number of materialised vertices (rounded to a power of
  /// two by the RMAT generator).  The paper-scale counts stay in `info`.
  VertexId target_vertices = 1 << 14;
  std::uint64_t seed = 42;
  /// When true, features carry class-correlated signal so training
  /// converges; when false, features are pure noise (faster, for
  /// throughput-only benches).
  bool label_signal = true;
};

/// Builds a synthetic stand-in for the named paper dataset.
Dataset materialize_dataset(const std::string& name, const MaterializeOptions& options = {});

/// Builds a small SBM-based dataset with genuinely learnable structure;
/// used by convergence tests and the quickstart example.
Dataset make_community_dataset(int num_classes, VertexId vertices_per_class,
                               int feature_dim, std::uint64_t seed);

}  // namespace hyscale
