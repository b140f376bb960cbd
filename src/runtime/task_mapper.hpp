// Design-time (coarse-grained) task mapping.
//
// "We first utilize the predicted result from our performance model to
// initialize the GNN training task mapping during compile time" (§IV-A).
// The mapper sweeps candidate CPU-trainer workload shares and thread
// allocations, evaluates each with the performance model, and returns the
// assignment with the lowest predicted iteration time.  DRM then
// fine-tunes it at runtime.
#pragma once

#include "runtime/perf_model.hpp"
#include "runtime/workload.hpp"

namespace hyscale {

struct TaskMapperOptions {
  std::int64_t per_trainer_batch = 1024;  ///< the paper's default mini-batch size
  bool hybrid = true;                      ///< allow a CPU trainer at all
  PipelineMode mode = PipelineMode::kTwoStagePrefetch;
};

/// Returns the best initial WorkloadAssignment for the platform described
/// by `model`'s PerformanceModel.
WorkloadAssignment initial_task_mapping(const PerformanceModel& model,
                                        const TaskMapperOptions& options = {});

}  // namespace hyscale
