// Cross-module integration tests: end-to-end relations the paper's
// evaluation depends on, exercised through the public API.
#include <gtest/gtest.h>

#include "baselines/distdgl.hpp"
#include "baselines/pagraph.hpp"
#include "baselines/pyg.hpp"
#include "core/hyscale.hpp"

namespace hyscale {
namespace {

const Dataset& products() {
  static const Dataset ds = [] {
    MaterializeOptions options;
    options.target_vertices = 1 << 11;
    options.label_signal = false;
    return materialize_dataset("ogbn-products", options);
  }();
  return ds;
}

Seconds hyscale_fpga_epoch(const Dataset& ds, GnnKind kind, std::vector<int> fanouts) {
  HybridTrainerConfig config;
  config.model_kind = kind;
  config.fanouts = std::move(fanouts);
  config.real_iterations_cap = 0;
  HybridTrainer trainer(ds, cpu_fpga_platform(4), config);
  trainer.train_epoch();
  return trainer.train_epoch().epoch_time;
}

TEST(CrossSystem, HyScaleFpgaBeatsPygBaseline) {
  // The Fig. 10 headline relation, end to end through the public API.
  PygMultiGpuBaseline pyg(cpu_gpu_platform(4));
  BaselineWorkload w;
  w.dataset = products().info;
  w.model = GnnKind::kGcn;
  const Seconds baseline = pyg.evaluate(w).epoch_time;
  const Seconds ours = hyscale_fpga_epoch(products(), GnnKind::kGcn, {25, 10});
  EXPECT_GT(baseline / ours, 4.0);   // paper: 8.87x; require the win
  EXPECT_LT(baseline / ours, 40.0);  // ...but not absurdly so
}

TEST(CrossSystem, HyScaleBeatsPaGraphModel) {
  // Table VI sign: faster than PaGraph in PaGraph's configuration.
  PaGraphBaseline pagraph;
  BaselineWorkload w;
  w.dataset = products().info;
  w.model = GnnKind::kGcn;
  const Seconds baseline = pagraph.evaluate(w).epoch_time;
  const Seconds ours = hyscale_fpga_epoch(products(), GnnKind::kGcn, {25, 10});
  EXPECT_GT(baseline / ours, 1.0);
}

TEST(CrossSystem, DistDglSixtyFourGpusBeatsFourFpgas) {
  // Table VI sign: DistDGLv2 on 64 T4s WINS against 4 FPGAs (paper:
  // HyScale reaches only 0.45x of its performance).
  DistDglBaseline distdgl;
  BaselineWorkload w;
  w.dataset = products().info;
  w.model = GnnKind::kSage;
  w.fanouts = {15, 10, 5};
  const Seconds baseline = distdgl.evaluate(w).epoch_time;
  const Seconds ours = hyscale_fpga_epoch(products(), GnnKind::kSage, {15, 10, 5});
  EXPECT_LT(baseline, ours);
}

TEST(CrossSystem, ScalabilitySaturatesButNeverRegressesMuch) {
  // Fig. 9 shape: speedup grows to 8 accelerators; at 16 it may
  // saturate but must not collapse below the 8-accelerator level by
  // more than a small margin.
  auto epoch_at = [&](int k) {
    HybridTrainerConfig config;
    config.real_iterations_cap = 0;
    HybridTrainer trainer(products(), cpu_fpga_platform(k), config);
    trainer.train_epoch();
    return trainer.train_epoch().epoch_time;
  };
  const Seconds e1 = epoch_at(1);
  const Seconds e4 = epoch_at(4);
  const Seconds e8 = epoch_at(8);
  const Seconds e16 = epoch_at(16);
  EXPECT_GT(e1 / e4, 2.0);
  EXPECT_GT(e1 / e8, e1 / e4);
  EXPECT_GT(e1 / e16, 0.85 * (e1 / e8));
}

TEST(CrossSystem, Fp16TransfersBetweenFp32AndInt8) {
  // Quantization monotonicity: epoch(int8) <= epoch(fp16) <= epoch(fp32)
  // on a transfer-sensitive configuration.
  auto epoch_with = [&](TransferPrecision precision) {
    HybridTrainerConfig config;
    config.model_kind = GnnKind::kGcn;
    config.real_iterations_cap = 0;
    config.drm = false;
    config.transfer_precision = precision;
    HybridTrainer trainer(products(), cpu_fpga_platform(4), config);
    return trainer.train_epoch().epoch_time;
  };
  const Seconds fp32 = epoch_with(TransferPrecision::kFp32);
  const Seconds fp16 = epoch_with(TransferPrecision::kFp16);
  const Seconds int8 = epoch_with(TransferPrecision::kInt8);
  EXPECT_LE(fp16, fp32 * 1.001);
  EXPECT_LE(int8, fp16 * 1.001);
}

TEST(CrossSystem, ThroughputGrowsWithAccelerators) {
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.dims = {100, 256, 47};
  double previous = 0.0;
  for (int k : {1, 2, 4}) {
    PerformanceModel pm(cpu_fpga_platform(k), model, products().info, {25, 10});
    const WorkloadAssignment w = initial_task_mapping(pm);
    const double mteps = pm.throughput_mteps(w, PipelineMode::kTwoStagePrefetch);
    EXPECT_GT(mteps, previous);
    previous = mteps;
  }
}

TEST(CrossSystem, TransferPrecisionSetterValidates) {
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.dims = {100, 256, 47};
  PerformanceModel pm(cpu_fpga_platform(2), model, products().info, {25, 10});
  EXPECT_THROW(pm.set_transfer_bytes_per_element(0.0), std::invalid_argument);
  EXPECT_THROW(pm.set_transfer_bytes_per_element(8.0), std::invalid_argument);
  pm.set_transfer_bytes_per_element(2.0);
  EXPECT_DOUBLE_EQ(pm.transfer_bytes_per_element(), 2.0);
}

}  // namespace
}  // namespace hyscale
