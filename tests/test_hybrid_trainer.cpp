// End-to-end tests of the HybridTrainer runtime: epoch reports, feature
// flags (the Fig. 11 ablation ordering), DRM trajectories, convergence,
// and the synchronous-SGD equivalence property (§II-B).
#include <gtest/gtest.h>

#include <memory>

#include "baselines/reference_trainer.hpp"
#include "graph/datasets.hpp"
#include "runtime/hybrid_trainer.hpp"

namespace hyscale {
namespace {

const Dataset& small_products() {
  static const Dataset ds = [] {
    MaterializeOptions options;
    options.target_vertices = 1 << 11;
    return materialize_dataset("ogbn-products", options);
  }();
  return ds;
}

HybridTrainerConfig fast_config() {
  HybridTrainerConfig config;
  config.fanouts = {5, 5};
  config.real_batch_total = 64;
  config.real_iterations_cap = 2;
  config.trajectory_cap = 64;
  return config;
}

TEST(HybridTrainer, EpochReportIsCoherent) {
  HybridTrainer trainer(small_products(), cpu_fpga_platform(4), fast_config());
  const EpochReport report = trainer.train_epoch();
  EXPECT_GT(report.iterations, 0);
  EXPECT_GT(report.epoch_time, 0.0);
  EXPECT_LT(report.epoch_time, 3600.0);
  EXPECT_GT(report.mteps, 0.0);
  EXPECT_GT(report.loss, 0.0);
  EXPECT_FALSE(report.trajectory.empty());
  EXPECT_EQ(report.final_workload.total_batch(), trainer.workload().total_batch());
}

TEST(HybridTrainer, PredictedEpochWithinModelErrorBand) {
  // Fig. 8: predicted vs actual within ~5-15%; our "actual" adds launch
  // and flush overheads to the same analytic skeleton, so the band holds
  // by construction — this guards against the two paths drifting apart.
  HybridTrainerConfig config = fast_config();
  config.drm = false;  // keep the workload static for the comparison
  config.real_iterations_cap = 0;
  HybridTrainer trainer(small_products(), cpu_fpga_platform(4), config);
  const Seconds predicted = trainer.predicted_epoch_time();
  const EpochReport report = trainer.train_epoch();
  const double error = std::abs(report.epoch_time - predicted) / report.epoch_time;
  EXPECT_LT(error, 0.30);
  EXPECT_GT(report.epoch_time, predicted);  // overheads only ever add time
}

TEST(HybridTrainer, AblationOrderingMatchesFigEleven) {
  // Baseline (static offload) <= +hybrid <= +DRM <= +TFP in throughput.
  const Dataset& ds = small_products();
  const PlatformSpec platform = cpu_fpga_platform(4);

  auto epoch_with = [&](bool hybrid, bool drm, PipelineMode mode) {
    HybridTrainerConfig config = fast_config();
    config.hybrid = hybrid;
    config.drm = drm;
    config.pipeline = mode;
    config.real_iterations_cap = 0;
    HybridTrainer trainer(ds, platform, config);
    // Two epochs so DRM settles before measuring.
    trainer.train_epoch();
    return trainer.train_epoch().epoch_time;
  };

  const Seconds baseline = epoch_with(false, false, PipelineMode::kSinglePrefetch);
  const Seconds hybrid = epoch_with(true, false, PipelineMode::kSinglePrefetch);
  const Seconds hybrid_drm = epoch_with(true, true, PipelineMode::kSinglePrefetch);
  const Seconds hybrid_drm_tfp = epoch_with(true, true, PipelineMode::kTwoStagePrefetch);

  // Each optimization may be neutral on some dataset/model combinations
  // (the paper sees that too) but must never hurt by more than noise.
  EXPECT_LE(hybrid, baseline * 1.05);
  EXPECT_LE(hybrid_drm, hybrid * 1.05);
  EXPECT_LE(hybrid_drm_tfp, hybrid_drm * 1.05);
  // And the full stack is a real improvement.
  EXPECT_LT(hybrid_drm_tfp, baseline * 0.98);
}

TEST(HybridTrainer, DrmRecordsActionsInTrajectory) {
  HybridTrainerConfig config = fast_config();
  config.drm = true;
  config.real_iterations_cap = 0;
  // Start from the uninformed mapping so DRM has something to correct.
  config.use_task_mapper = false;
  HybridTrainer trainer(small_products(), cpu_fpga_platform(4), config);
  const EpochReport report = trainer.train_epoch();
  bool any_action = false;
  for (const auto& record : report.trajectory) {
    if (record.drm_action.kind != DrmAction::Kind::kNone) any_action = true;
    EXPECT_EQ(record.workload.total_batch(), trainer.workload().total_batch());
  }
  EXPECT_TRUE(any_action);
}

TEST(HybridTrainer, LossDecreasesOnLearnableData) {
  const Dataset ds = make_community_dataset(4, 128, 16, 3);
  HybridTrainerConfig config;
  config.fanouts = {5, 5};
  config.real_batch_total = 128;
  config.real_iterations_cap = 50;
  config.learning_rate = 0.3;
  config.per_trainer_batch = 256;  // few simulated iterations per epoch
  HybridTrainer trainer(ds, cpu_fpga_platform(2), config);
  const EpochReport first = trainer.train_epoch();
  for (int e = 0; e < 6; ++e) trainer.train_epoch();
  const EpochReport last = trainer.train_epoch();
  EXPECT_LT(last.loss, first.loss * 0.8);
  EXPECT_GT(trainer.evaluate_accuracy(), 0.6);
}

TEST(HybridTrainer, GpuAndFpgaPlatformsBothRun) {
  for (const PlatformSpec& platform : {cpu_gpu_platform(2), cpu_fpga_platform(2)}) {
    HybridTrainerConfig config = fast_config();
    config.real_iterations_cap = 0;
    HybridTrainer trainer(small_products(), platform, config);
    const EpochReport report = trainer.train_epoch();
    EXPECT_GT(report.epoch_time, 0.0);
  }
}

TEST(HybridTrainer, FpgaPlatformFasterThanGpuPlatform) {
  // The §VI-E1 headline, end to end: same dataset and model, the
  // CPU-FPGA platform finishes epochs faster than CPU-GPU.
  auto run = [&](const PlatformSpec& platform) {
    HybridTrainerConfig config = fast_config();
    config.fanouts = {25, 10};
    config.real_iterations_cap = 0;
    HybridTrainer trainer(small_products(), platform, config);
    trainer.train_epoch();
    return trainer.train_epoch().epoch_time;
  };
  EXPECT_LT(run(cpu_fpga_platform(4)), run(cpu_gpu_platform(4)));
}

TEST(HybridTrainer, ThreeLayerFanoutsSupported) {
  HybridTrainerConfig config = fast_config();
  config.fanouts = {4, 3, 2};
  config.real_iterations_cap = 1;
  HybridTrainer trainer(small_products(), cpu_fpga_platform(2), config);
  const EpochReport report = trainer.train_epoch();
  EXPECT_GT(report.epoch_time, 0.0);
  EXPECT_GT(report.loss, 0.0);
}

TEST(HybridTrainer, GcnSageAndGatAllTrain) {
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGat}) {
    HybridTrainerConfig config = fast_config();
    config.model_kind = kind;
    HybridTrainer trainer(small_products(), cpu_fpga_platform(2), config);
    const EpochReport report = trainer.train_epoch();
    EXPECT_GT(report.loss, 0.0);
  }
}

TEST(Equivalence, HybridMatchesSingleDeviceLargeBatch) {
  // §II-B: synchronous SGD on k trainers with batch b each is
  // algorithmically equivalent to one trainer with batch k*b.  Drive a
  // 2-trainer hybrid system and a reference trainer with identical
  // initial weights and identical seed batches; weights must track.
  const Dataset ds = make_community_dataset(3, 64, 8, 9);

  ReferenceTrainerConfig ref_config;
  ref_config.fanouts = {4, 4};
  ref_config.learning_rate = 0.1;
  ref_config.seed = 1234;  // same model init seed as the hybrid replicas
  ReferenceTrainer reference(ds, ref_config);

  HybridTrainerConfig config;
  config.fanouts = {4, 4};
  config.learning_rate = 0.1;
  config.seed = 1234;
  config.real_batch_total = 64;
  config.real_iterations_cap = 4;
  config.per_trainer_batch = 1024;
  HybridTrainer hybrid(ds, cpu_fpga_platform(1), config);

  // Identical initialisation by construction (same ModelConfig seed).
  const auto hybrid_params = hybrid.model().parameters();
  const auto ref_params = reference.model().parameters();
  ASSERT_EQ(hybrid_params.size(), ref_params.size());
  for (std::size_t i = 0; i < ref_params.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        Tensor::max_abs_diff(hybrid_params[i]->value, ref_params[i]->value), 0.0);
  }
  // The two runs sample different mini-batches (different streams), so we
  // check the *statistical* equivalence instead of bitwise: losses land
  // in the same regime after the same number of updates.
  hybrid.train_epoch();
  const double hybrid_loss = hybrid.train_epoch().loss;
  reference.train_epoch();
  const ReferenceEpochReport ref_report = reference.train_epoch();
  EXPECT_NEAR(hybrid_loss, ref_report.loss, 0.8);
}

TEST(Equivalence, WeightedAllReduceEqualsConcatenatedBatch) {
  // Exact check of the §II-B claim at the gradient level: two replicas
  // processing disjoint halves, weighted-averaged, give the same
  // gradient as one model processing the concatenated batch.
  const Dataset ds = make_community_dataset(3, 64, 8, 9);
  ReferenceTrainerConfig config;
  config.fanouts = {4, 4};
  config.seed = 77;

  // Build three trainers sharing init: two halves + one whole.
  ReferenceTrainer left(ds, config), right(ds, config), whole(ds, config);

  std::vector<VertexId> seeds_left(ds.train_ids.begin(), ds.train_ids.begin() + 16);
  std::vector<VertexId> seeds_right(ds.train_ids.begin() + 16, ds.train_ids.begin() + 32);
  std::vector<VertexId> seeds_all(ds.train_ids.begin(), ds.train_ids.begin() + 32);

  // One SGD step each (same lr); after the step the weighted average of
  // (left, right) parameter deltas equals the whole-batch delta, because
  // grad(whole) = (grad(left) + grad(right)) / 2 for equal halves...
  // provided the sampled neighborhoods match.  Use full-neighbor fanouts
  // (>= max degree) so sampling is deterministic.
  const EdgeId max_deg = ds.graph.max_degree();
  ReferenceTrainerConfig full = config;
  full.fanouts = {static_cast<int>(max_deg), static_cast<int>(max_deg)};
  ReferenceTrainer l2(ds, full), r2(ds, full), w2(ds, full);
  l2.train_on_seeds(seeds_left);
  r2.train_on_seeds(seeds_right);
  w2.train_on_seeds(seeds_all);

  const auto pl = l2.model().parameters();
  const auto pr = r2.model().parameters();
  const auto pw = w2.model().parameters();
  for (std::size_t i = 0; i < pw.size(); ++i) {
    Tensor averaged(pl[i]->value.rows(), pl[i]->value.cols());
    for (std::int64_t j = 0; j < averaged.size(); ++j) {
      averaged.data()[j] = 0.5f * (pl[i]->value.data()[j] + pr[i]->value.data()[j]);
    }
    EXPECT_LT(Tensor::max_abs_diff(averaged, pw[i]->value), 5e-4)
        << "param " << i;
  }
}

}  // namespace
}  // namespace hyscale
