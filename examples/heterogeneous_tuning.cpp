// Heterogeneous-platform tuning: compares the same training job across
// platform configurations (GPU vs FPGA accelerators, counts, feature
// flags) — the workflow a systems engineer uses to choose a deployment.
//
//   $ ./example_heterogeneous_tuning
//
// Exercises: both platform factories, the Fig.-11 feature flags, the
// performance model for what-if analysis without running anything.
#include <cstdio>
#include <vector>

#include "core/hyscale.hpp"

using namespace hyscale;

namespace {

Seconds measure(const Dataset& dataset, const PlatformSpec& platform, bool hybrid, bool drm,
                PipelineMode mode) {
  HybridTrainerConfig config;
  config.model_kind = GnnKind::kSage;
  config.fanouts = {25, 10};
  config.hybrid = hybrid;
  config.drm = drm;
  config.pipeline = mode;
  config.real_iterations_cap = 0;  // timing study only
  HybridTrainer trainer(dataset, platform, config);
  trainer.train_epoch();  // let DRM settle
  return trainer.train_epoch().epoch_time;
}

}  // namespace

int main() {
  MaterializeOptions options;
  options.target_vertices = 1 << 11;
  options.label_signal = false;
  const Dataset dataset = materialize_dataset("ogbn-products", options);

  std::printf("GraphSAGE on ogbn-products (paper-scale timing simulation)\n\n");
  std::printf("%-34s  %s\n", "configuration", "epoch time (s)");

  struct Config {
    const char* label;
    PlatformSpec platform;
    bool hybrid, drm;
    PipelineMode mode;
  };
  const std::vector<Config> configs = {
      {"4x GPU, offload only", cpu_gpu_platform(4), false, false, PipelineMode::kSequential},
      {"4x GPU, hybrid+DRM+TFP", cpu_gpu_platform(4), true, true,
       PipelineMode::kTwoStagePrefetch},
      {"4x FPGA, offload only", cpu_fpga_platform(4), false, false, PipelineMode::kSequential},
      {"4x FPGA, hybrid+DRM+TFP", cpu_fpga_platform(4), true, true,
       PipelineMode::kTwoStagePrefetch},
      {"8x FPGA, hybrid+DRM+TFP", cpu_fpga_platform(8), true, true,
       PipelineMode::kTwoStagePrefetch},
  };
  for (const Config& c : configs) {
    std::printf("%-34s  %.3f\n", c.label, measure(dataset, c.platform, c.hybrid, c.drm, c.mode));
  }

  // What-if analysis with the pure performance model (no simulation):
  std::printf("\nWhat-if (Section V model, no execution): FPGA count sweep\n");
  ModelConfig model;
  model.kind = GnnKind::kSage;
  model.dims = {dataset.info.f0, dataset.info.f1, dataset.info.f2};
  for (int k : {1, 2, 4, 8, 16}) {
    PerformanceModel pm(cpu_fpga_platform(k), model, dataset.info, {25, 10});
    const WorkloadAssignment w = initial_task_mapping(pm);
    std::printf("  %2d FPGAs: predicted epoch %.3f s, throughput %.0f MTEPS\n", k,
                pm.predict_epoch(w, PipelineMode::kTwoStagePrefetch),
                pm.throughput_mteps(w, PipelineMode::kTwoStagePrefetch));
  }
  return 0;
}
