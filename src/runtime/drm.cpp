#include "runtime/drm.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/log.hpp"
#include "common/strutil.hpp"

namespace hyscale {

std::string DrmAction::to_string() const {
  switch (kind) {
    case Kind::kNone:
      return "drm{none}";
    case Kind::kBalanceWork:
      return std::string("drm{balance_work, bottleneck=") + stage_name(bottleneck) +
             ", moved=" + std::to_string(batch_moved) + " seeds CPU->accel}";
    case Kind::kBalanceThread:
      return std::string("drm{balance_thread, ") + stage_name(thread_from) + "->" +
             stage_name(thread_to) + " x" + std::to_string(threads_moved) + "}";
    case Kind::kBalanceSampling:
      return "drm{balance_sampling, delta=" + format_double(sample_fraction_delta, 3) + "}";
  }
  return "drm{?}";
}

DrmEngine::DrmEngine(DrmConfig config) : config_(config) {}

namespace {

/// Fraction of the gap to the rate-balanced ideal closed per step.
constexpr double kWorkGain = 0.5;
/// Seed-count granularity of balance_work moves.
constexpr double kBatchGranularity = 16.0;
/// Threads moved per balance_thread step.
constexpr int kThreadStep = 2;
/// Granularity of sampling-fraction moves.
constexpr double kSampleFractionStep = 0.125;

// The five quantities Algorithm 1 sorts (line 2): TSC, TSA, TLoad, TTC,
// and the bundled T_Accel = max(TTran, TTA).
struct Entry {
  Stage stage;
  Seconds time;
};

Stage cpu_task_for(Stage stage) { return stage; }  // TSC / TLoad / TTC are CPU tasks

}  // namespace

DrmAction DrmEngine::balance_thread(Stage from, Stage to, WorkloadAssignment& workload) {
  DrmAction action;
  action.kind = DrmAction::Kind::kBalanceThread;
  action.thread_from = from;
  action.thread_to = to;

  auto slot = [&](Stage stage) -> int* {
    switch (stage) {
      case Stage::kSampleCpu: return &workload.threads.sampler;
      case Stage::kLoad: return &workload.threads.loader;
      case Stage::kTrainCpu: return &workload.threads.trainer;
      default: return nullptr;
    }
  };
  int* src = slot(from);
  int* dst = slot(to);
  if (src == nullptr || dst == nullptr || src == dst) {
    action.kind = DrmAction::Kind::kNone;
    return action;
  }
  // Keep at least one thread on every CPU task so no stage deadlocks.
  const int movable = std::max(0, *src - 1);
  const int moved = std::min(kThreadStep, movable);
  *src -= moved;
  *dst += moved;
  action.threads_moved = moved;
  if (moved == 0) action.kind = DrmAction::Kind::kNone;
  return action;
}

DrmAction DrmEngine::balance_trainer_work(const StageTimes& times, WorkloadAssignment& workload) {
  DrmAction action;
  action.kind = DrmAction::Kind::kBalanceWork;

  // Observed processing rates (seeds/s).  If a side currently has no
  // workload, give it an optimistic rate equal to the other side's so a
  // first chunk gets assigned and real rates can be observed next round.
  const double accel_total =
      static_cast<double>(workload.accel_batch) * workload.num_accelerators;
  const double cpu_rate = workload.cpu_batch > 0 && times.train_cpu > 0.0
                              ? static_cast<double>(workload.cpu_batch) / times.train_cpu
                              : 0.0;
  const Seconds accel_time = times.accel_bundle();
  const double accel_rate =
      accel_total > 0.0 && accel_time > 0.0 ? accel_total / accel_time : 0.0;
  if (cpu_rate == 0.0 && accel_rate == 0.0) {
    action.kind = DrmAction::Kind::kNone;
    return action;
  }

  const std::int64_t total = workload.total_batch();
  const double effective_cpu_rate = cpu_rate > 0.0 ? cpu_rate : accel_rate * 0.1;
  const double effective_accel_rate = accel_rate > 0.0 ? accel_rate : effective_cpu_rate;
  const double ideal_cpu = static_cast<double>(total) * effective_cpu_rate /
                           (effective_cpu_rate + effective_accel_rate);

  double target = static_cast<double>(workload.cpu_batch) +
                  kWorkGain * (ideal_cpu - static_cast<double>(workload.cpu_batch));
  // Quantise to granularity and clamp.  Below one granule the CPU
  // trainer is pure overhead — release it entirely (its threads then
  // flow to the sampler/loader via balance_thread).
  target = target < kBatchGranularity
               ? 0.0
               : kBatchGranularity * std::nearbyint(target / kBatchGranularity);
  const auto new_cpu =
      std::clamp<std::int64_t>(static_cast<std::int64_t>(target), 0, total);

  action.batch_moved = workload.cpu_batch - new_cpu;  // positive: CPU -> accel
  workload.cpu_batch = new_cpu;
  if (workload.num_accelerators > 0) {
    workload.accel_batch = (total - new_cpu) / workload.num_accelerators;
    // Remainder seeds stay on the CPU so the total is preserved exactly.
    workload.cpu_batch = total - workload.accel_batch * workload.num_accelerators;
  }
  if (action.batch_moved == 0) action.kind = DrmAction::Kind::kNone;
  return action;
}

DrmAction DrmEngine::balance_sampling_work(const StageTimes& /*times*/,
                                           WorkloadAssignment& workload, bool toward_accel) {
  DrmAction action;
  action.kind = DrmAction::Kind::kBalanceSampling;
  const double delta = toward_accel ? kSampleFractionStep : -kSampleFractionStep;
  const double before = workload.accel_sample_fraction;
  workload.accel_sample_fraction = std::clamp(before + delta, 0.0, 1.0);
  action.sample_fraction_delta = workload.accel_sample_fraction - before;
  if (action.sample_fraction_delta == 0.0) action.kind = DrmAction::Kind::kNone;
  return action;
}

DrmAction DrmEngine::step(const StageTimes& times, WorkloadAssignment& workload) {
  // Algorithm 1, lines 1-8.
  const Seconds t_accel = times.accel_bundle();
  std::array<Entry, 5> all = {{{Stage::kSampleCpu, times.sample_cpu},
                               {Stage::kSampleAccel, times.sample_accel},
                               {Stage::kLoad, times.load},
                               {Stage::kTrainCpu, times.train_cpu},
                               {Stage::kTrainAccel, t_accel}}};
  // TSA only participates when accelerator sampling is possible at all.
  auto begin = all.begin();
  auto end = all.end();
  std::vector<Entry> active(begin, end);
  if (!config_.accel_sampling_available) {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [](const Entry& e) { return e.stage == Stage::kSampleAccel; }),
                 active.end());
  }
  std::sort(active.begin(), active.end(),
            [](const Entry& a, const Entry& b) { return a.time > b.time; });
  const Stage bottleneck = active.front().stage;
  const Stage fastest = active.back().stage;
  const Stage second = active[active.size() - 2].stage;

  std::array<Entry, 3> cpu_tasks = {{{Stage::kSampleCpu, times.sample_cpu},
                                     {Stage::kLoad, times.load},
                                     {Stage::kTrainCpu, times.train_cpu}}};
  std::sort(cpu_tasks.begin(), cpu_tasks.end(),
            [](const Entry& a, const Entry& b) { return a.time > b.time; });
  const Stage fastest_cpu_task = cpu_tasks.back().stage;

  DrmAction action;
  switch (bottleneck) {
    case Stage::kSampleAccel:
      // Line 11-12: too much sampling on the accelerator; shift to CPU.
      action = balance_sampling_work(times, workload, /*toward_accel=*/false);
      break;
    case Stage::kTrainAccel:
      // Line 13-14: accelerator (transfer or training) is the bottleneck;
      // move training work to the CPU.
      action = balance_trainer_work(times, workload);
      break;
    case Stage::kLoad:
      // Line 15-16: feed the loader more threads from the fastest CPU task.
      action = balance_thread(cpu_task_for(fastest_cpu_task), Stage::kLoad, workload);
      break;
    case Stage::kSampleCpu:
      // Lines 17-24.
      if (config_.accel_sampling_available &&
          (fastest == Stage::kSampleAccel ||
           (fastest == Stage::kTrainAccel && second == Stage::kSampleAccel))) {
        action = balance_sampling_work(times, workload, /*toward_accel=*/true);
      } else {
        action = balance_thread(cpu_task_for(fastest_cpu_task), Stage::kSampleCpu, workload);
      }
      break;
    case Stage::kTrainCpu:
      // Lines 25-32.
      if (fastest == Stage::kTrainAccel ||
          (fastest == Stage::kSampleAccel && second == Stage::kTrainAccel)) {
        action = balance_trainer_work(times, workload);
      } else {
        action = balance_thread(cpu_task_for(fastest_cpu_task), Stage::kTrainCpu, workload);
      }
      break;
    default:
      break;
  }
  action.bottleneck = bottleneck;
  action.fastest = fastest;
  log_message(LogLevel::kDebug, "drm", action.to_string(), " | ", times.to_string());
  return action;
}

}  // namespace hyscale
