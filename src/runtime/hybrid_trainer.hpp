// HybridTrainer — the HyScale-GNN runtime (§III).
//
// Owns the dataset, one GNN-model replica per trainer (1 CPU trainer +
// one per accelerator), the Mini-batch Sampler, Feature Loader,
// Synchronizer, DRM engine and the performance model, and runs epochs of
// hybrid synchronous-SGD training.
//
// Two time domains coexist by design (see DESIGN.md, substitutions):
//   * REAL numerics — mini-batches are actually sampled from the
//     materialised (scaled) graph, forward/backward actually run, and
//     gradients are actually all-reduced through the Processor-
//     Accelerator Training Protocol, so losses, accuracies and
//     convergence are genuine;
//   * SIMULATED time — per-stage durations come from the §V cost models
//     evaluated at *paper scale* (Table III cardinalities), perturbed by
//     the measured sampling variance of the real batches plus explicit
//     launch/flush overheads.  The DRM engine consumes these simulated
//     stage times exactly as it would consume wall-clock measurements on
//     the paper's testbed.
// This preserves the paper's control loop (what DRM sees and does) while
// replacing only the hardware under it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "device/spec.hpp"
#include "graph/datasets.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "runtime/drm.hpp"
#include "runtime/feature_loader.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/stage_times.hpp"
#include "runtime/task_mapper.hpp"
#include "runtime/workload.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "tensor/quantize.hpp"

namespace hyscale {

struct HybridTrainerConfig {
  // ---- Feature flags (the Fig. 11 ablation axes).
  bool hybrid = true;  ///< CPU trainer participates (vs pure offload)
  bool drm = true;     ///< dynamic resource management at runtime
  PipelineMode pipeline = PipelineMode::kTwoStagePrefetch;  ///< TFP when two-stage
  /// Seed the workload from the §V performance model (the paper's
  /// compile-time mapping).  When false, a heuristic split (half a
  /// trainer's batch on the CPU, 1/4-1/4-1/2 threads) stands in for an
  /// uninformed deployment — the ablation uses this to isolate how much
  /// DRM recovers at runtime.
  bool use_task_mapper = true;

  // ---- Training algorithm (paper defaults, §VI-A2).
  GnnKind model_kind = GnnKind::kSage;
  std::vector<int> fanouts = {25, 10};
  std::int64_t per_trainer_batch = 1024;  ///< paper-scale mini-batch per trainer
  double learning_rate = 0.1;
  std::uint64_t seed = 1;

  // ---- Real-execution controls.
  std::int64_t real_batch_total = 256;  ///< seeds per iteration across all trainers
  /// Real fwd/bwd only for the first k iters/epoch; 0 = timing model only.
  int real_iterations_cap = 8;

  // ---- Future-work extension (§VIII): quantize features before the
  // PCIe hop.  int8 additionally round-trips the real accelerator
  // features through quantization so the numeric effect is genuine.
  TransferPrecision transfer_precision = TransferPrecision::kFp32;

  // ---- Bookkeeping.
  int trajectory_cap = 512;  ///< iteration records kept per epoch
};

struct IterationRecord {
  long iteration = 0;
  StageTimes times;
  Seconds iteration_time = 0.0;
  WorkloadAssignment workload;  ///< assignment used THIS iteration
  DrmAction drm_action;         ///< adjustment applied for the next one
};

struct EpochReport {
  Seconds epoch_time = 0.0;  ///< simulated wall time at paper scale
  long iterations = 0;
  double mteps = 0.0;        ///< Eq. 5 throughput
  double loss = 0.0;         ///< mean real loss over the real-compute iterations
  double train_accuracy = 0.0;
  StageTimes mean_times;
  WorkloadAssignment final_workload;
  std::vector<IterationRecord> trajectory;
};

class HybridTrainer {
 public:
  /// `dataset` must outlive the trainer.
  HybridTrainer(const Dataset& dataset, PlatformSpec platform, HybridTrainerConfig config);

  /// Runs one epoch; returns the report.  Real compute (if enabled)
  /// advances the model; simulated time advances the DRM state.
  EpochReport train_epoch();

  /// Runs `epochs` epochs.
  std::vector<EpochReport> train(int epochs);

  /// Predicted epoch time from the pure §V model with the *initial*
  /// mapping — the "Predicted" series of Fig. 8.
  Seconds predicted_epoch_time() const;

  const WorkloadAssignment& workload() const { return workload_; }
  void set_workload(const WorkloadAssignment& workload) { workload_ = workload; }
  const PerformanceModel& perf_model() const { return *perf_model_; }
  GnnModel& model() { return *replicas_.front(); }
  int num_trainers() const { return static_cast<int>(replicas_.size()); }

  /// Evaluate train accuracy of the current model on up to `max_seeds`
  /// training vertices (full-neighborhood forward).
  double evaluate_accuracy(std::int64_t max_seeds = 512);

 private:
  struct RealIterationResult {
    double loss = 0.0;
    double accuracy = 0.0;
    double edge_jitter = 1.0;  ///< measured / expected sampled edges
  };
  RealIterationResult run_real_iteration();
  BatchStats jittered_expected_stats(std::int64_t batch, double jitter) const;
  StageTimes simulate_stage_times(double jitter) const;
  std::vector<VertexId> next_real_seeds(std::int64_t count, std::uint64_t salt);

  const Dataset& dataset_;
  PlatformSpec platform_;
  HybridTrainerConfig config_;

  std::unique_ptr<PerformanceModel> perf_model_;
  WorkloadAssignment initial_workload_;
  WorkloadAssignment workload_;
  DrmEngine drm_;

  std::vector<std::unique_ptr<GnnModel>> replicas_;
  std::vector<std::unique_ptr<SgdOptimizer>> optimizers_;
  std::unique_ptr<NeighborSampler> sampler_;
  std::unique_ptr<FeatureLoader> loader_;

  std::vector<VertexId> shuffled_train_;
  std::size_t train_cursor_ = 0;
  std::uint64_t shuffle_round_ = 0;
  long epoch_counter_ = 0;
};

}  // namespace hyscale
