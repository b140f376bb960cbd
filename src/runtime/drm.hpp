// Dynamic Resource Management engine — Algorithm 1 of the paper.
//
// A bottleneck-guided optimizer: each iteration it receives the measured
// stage times, identifies the slowest and fastest stages, and applies one
// of two moves to speed the bottleneck up:
//   * balance_work   — shift mini-batch size between the CPU trainer and
//     the accelerator trainers (or sampling fraction between CPU and
//     accelerator samplers), keeping the total constant;
//   * balance_thread — move CPU threads from the fastest CPU-resident
//     task (sampler / loader / CPU trainer) to the bottleneck task.
// The dispatch structure below follows Algorithm 1 line by line,
// including the two lookahead cases for TSC / TTC bottlenecks.
#pragma once

#include <string>
#include <vector>

#include "runtime/stage_times.hpp"
#include "runtime/workload.hpp"

namespace hyscale {

struct DrmConfig {
  /// Whether any accelerator can sample (enables the TSA dimension).
  bool accel_sampling_available = false;
};

/// What the engine did in one invocation (for logging and tests).
struct DrmAction {
  enum class Kind { kNone, kBalanceWork, kBalanceThread, kBalanceSampling };
  Kind kind = Kind::kNone;
  Stage bottleneck = Stage::kTrainAccel;
  Stage fastest = Stage::kTrainAccel;
  std::int64_t batch_moved = 0;  ///< seeds moved CPU->accel (negative: accel->CPU)
  int threads_moved = 0;
  Stage thread_from = Stage::kTrainCpu;
  Stage thread_to = Stage::kTrainCpu;
  double sample_fraction_delta = 0.0;

  std::string to_string() const;
};

class DrmEngine {
 public:
  explicit DrmEngine(DrmConfig config = {});

  /// One Algorithm-1 step: inspects `times`, mutates `workload`, and
  /// returns the action taken.
  DrmAction step(const StageTimes& times, WorkloadAssignment& workload);

  const DrmConfig& config() const { return config_; }

 private:
  DrmAction balance_trainer_work(const StageTimes& times, WorkloadAssignment& workload);
  DrmAction balance_sampling_work(const StageTimes& times, WorkloadAssignment& workload,
                                  bool toward_accel);
  DrmAction balance_thread(Stage from, Stage to, WorkloadAssignment& workload);

  DrmConfig config_;
};

}  // namespace hyscale
