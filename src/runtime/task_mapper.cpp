#include "runtime/task_mapper.hpp"

#include <array>
#include <limits>

#include "common/log.hpp"

namespace hyscale {
namespace {

/// Candidate CPU shares of one extra trainer's worth of work,
/// in 1/16ths of per_trainer_batch (0 .. 16).
constexpr int kMaxCpuShare16ths = 16;

}  // namespace

WorkloadAssignment initial_task_mapping(const PerformanceModel& model,
                                        const TaskMapperOptions& options) {
  const int num_accels = model.platform().num_accelerators();

  WorkloadAssignment best;
  Seconds best_time = std::numeric_limits<double>::infinity();

  // Thread-allocation presets; DRM refines at runtime, the mapper only
  // needs a reasonable starting split of the 128 host threads.
  const int total_threads = model.platform().cpu_threads;
  const std::array<ThreadAllocation, 3> thread_presets = {{
      {total_threads, total_threads / 4, total_threads / 4, total_threads / 2},
      {total_threads, total_threads / 8, total_threads / 2, total_threads / 8 * 3},
      {total_threads, total_threads / 2, total_threads / 4, total_threads / 4},
  }};

  // The hybrid system adds a CPU trainer carrying up to one extra
  // trainer's worth of seeds on top of `per_trainer_batch` per
  // accelerator; accelerator-only mapping is cpu_share = 0.
  const int max_share = options.hybrid ? kMaxCpuShare16ths : 0;
  for (int share16 = 0; share16 <= max_share; ++share16) {
    for (const auto& threads : thread_presets) {
      WorkloadAssignment candidate;
      candidate.num_accelerators = num_accels;
      candidate.accel_batch = num_accels > 0 ? options.per_trainer_batch : 0;
      candidate.cpu_batch = options.per_trainer_batch * share16 / 16;
      if (num_accels == 0 && candidate.cpu_batch == 0)
        candidate.cpu_batch = options.per_trainer_batch;
      candidate.threads = threads;
      candidate.accel_sample_fraction = 0.0;

      const Seconds time = model.predict_iteration(candidate, options.mode);
      // Normalise by work done so larger CPU shares are rewarded only
      // when they raise throughput.
      const double per_seed = time / static_cast<double>(candidate.total_batch());
      const double best_per_seed =
          best_time / static_cast<double>(best.total_batch() > 0 ? best.total_batch() : 1);
      if (best_time == std::numeric_limits<double>::infinity() || per_seed < best_per_seed) {
        best = candidate;
        best_time = time;
      }
    }
  }
  log_message(LogLevel::kInfo, "task_mapper", "initial mapping: ", best.to_string());
  return best;
}

}  // namespace hyscale
