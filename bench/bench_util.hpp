// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench prints:
//   * a header identifying the paper artifact it regenerates,
//   * the same rows/series the paper reports (datasets x models),
//   * where available, the paper's reported value next to ours so
//     EXPERIMENTS.md can record paper-vs-measured directly.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/strutil.hpp"
#include "graph/datasets.hpp"
#include "nn/model.hpp"
#include "runtime/hybrid_trainer.hpp"

namespace hyscale::bench {

inline void header(const std::string& artifact, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), description.c_str());
  std::printf("================================================================\n");
}

inline void row(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    line += pad_right(cells[i], static_cast<std::size_t>(i < widths.size() ? widths[i] : 14));
    line += "  ";
  }
  std::printf("%s\n", line.c_str());
}

/// The three evaluation datasets in paper order.
inline std::vector<std::string> dataset_names() {
  return {"ogbn-products", "ogbn-papers100M", "MAG240M (homo)"};
}

inline std::vector<GnnKind> model_kinds() { return {GnnKind::kGcn, GnnKind::kSage}; }

/// Materialised (scaled) datasets, built once and shared across benches
/// in the same process.
inline const Dataset& scaled_dataset(const std::string& name) {
  static std::map<std::string, Dataset> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    MaterializeOptions options;
    options.target_vertices = 1 << 11;
    options.label_signal = false;  // throughput benches skip learning
    it = cache.emplace(name, materialize_dataset(name, options)).first;
  }
  return it->second;
}

/// Standard simulated-training config used by the reproduction benches:
/// paper hyper-parameters, no real numerics (timing only).
inline HybridTrainerConfig sim_config(GnnKind kind) {
  HybridTrainerConfig config;
  config.model_kind = kind;
  config.fanouts = {25, 10};
  config.per_trainer_batch = 1024;
  config.real_iterations_cap = 0;
  config.trajectory_cap = 0;
  return config;
}

/// Runs `settle` epochs to let DRM converge, then returns the epoch
/// report of one more epoch.
inline EpochReport settled_epoch(HybridTrainer& trainer, int settle = 2) {
  for (int i = 0; i < settle; ++i) trainer.train_epoch();
  return trainer.train_epoch();
}

}  // namespace hyscale::bench
