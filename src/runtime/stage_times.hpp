// Per-iteration stage timings — the vocabulary Algorithm 1 operates on.
//
// The six inputs of the DRM engine (Algorithm 1): Sampling on Accelerator
// (TSA), Sampling on CPU (TSC), Feature Loading (TLoad), Data Transfer
// (TTran), Training on CPU (TTC), Training on Accelerator (TTA), plus the
// synchroniser cost that extends the propagation stage.
#pragma once

#include <string>

#include "common/timer.hpp"

namespace hyscale {

enum class Stage {
  kSampleAccel,   // TSA
  kSampleCpu,     // TSC
  kLoad,          // TLoad
  kTransfer,      // TTran
  kTrainCpu,      // TTC
  kTrainAccel,    // TTA
};

const char* stage_name(Stage stage);

struct StageTimes {
  Seconds sample_accel = 0.0;
  Seconds sample_cpu = 0.0;
  Seconds load = 0.0;
  Seconds transfer = 0.0;
  Seconds train_cpu = 0.0;
  Seconds train_accel = 0.0;
  Seconds sync = 0.0;

  Seconds get(Stage stage) const;

  /// T_Accel = max(TTran, TTA) — Algorithm 1 line 1 bundles transfer and
  /// accelerator training because their durations co-vary with the
  /// accelerator workload.
  Seconds accel_bundle() const { return transfer > train_accel ? transfer : train_accel; }

  /// Combined sampling stage (CPU and accelerator samplers run
  /// concurrently on disjoint batches).
  Seconds sampling() const { return sample_cpu > sample_accel ? sample_cpu : sample_accel; }

  /// GNN propagation stage: slowest trainer plus the all-reduce (Eq. 9).
  Seconds propagation() const {
    return (train_cpu > train_accel ? train_cpu : train_accel) + sync;
  }

  std::string to_string() const;
};

/// Pipeline organisations the ablation study (Fig. 11) compares.
enum class PipelineMode {
  /// No prefetching: the four stages execute back-to-back each iteration.
  kSequential,
  /// Feature prefetching as ONE stage: loading and transfer are fused and
  /// overlap with sampling and propagation (pre-TFP design).
  kSinglePrefetch,
  /// Two-stage Feature Prefetching (§IV-B): loading and transfer occupy
  /// separate pipeline stages (they use different channels — host DRAM
  /// vs PCIe), giving the 4-deep pipeline of Fig. 7.
  kTwoStagePrefetch,
};

const char* pipeline_mode_name(PipelineMode mode);

/// Steady-state time of one training iteration under the given pipeline
/// organisation (Eq. 6 for the two-stage case).
Seconds iteration_time(const StageTimes& t, PipelineMode mode);

/// Pipeline fill/drain: what the first batch, flowing through every
/// stage in turn, costs beyond one steady-state iteration (never
/// negative).
Seconds pipeline_fill(const StageTimes& t, PipelineMode mode);

/// Epoch time: `iterations` pipelined iterations including fill/drain of
/// a pipeline with the mode's depth.
Seconds epoch_time(const StageTimes& t, PipelineMode mode, long iterations);

}  // namespace hyscale
