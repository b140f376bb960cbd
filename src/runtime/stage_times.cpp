#include "runtime/stage_times.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strutil.hpp"

namespace hyscale {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kSampleAccel: return "TSA";
    case Stage::kSampleCpu: return "TSC";
    case Stage::kLoad: return "TLoad";
    case Stage::kTransfer: return "TTran";
    case Stage::kTrainCpu: return "TTC";
    case Stage::kTrainAccel: return "TTA";
  }
  return "?";
}

Seconds StageTimes::get(Stage stage) const {
  switch (stage) {
    case Stage::kSampleAccel: return sample_accel;
    case Stage::kSampleCpu: return sample_cpu;
    case Stage::kLoad: return load;
    case Stage::kTransfer: return transfer;
    case Stage::kTrainCpu: return train_cpu;
    case Stage::kTrainAccel: return train_accel;
  }
  throw std::invalid_argument("StageTimes::get: unknown stage");
}

std::string StageTimes::to_string() const {
  auto ms = [](Seconds s) { return format_double(s * 1e3, 3) + "ms"; };
  return "TSC=" + ms(sample_cpu) + " TSA=" + ms(sample_accel) + " TLoad=" + ms(load) +
         " TTran=" + ms(transfer) + " TTC=" + ms(train_cpu) + " TTA=" + ms(train_accel) +
         " Tsync=" + ms(sync);
}

const char* pipeline_mode_name(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kSequential: return "sequential";
    case PipelineMode::kSinglePrefetch: return "single-stage prefetch";
    case PipelineMode::kTwoStagePrefetch: return "two-stage prefetch";
  }
  return "?";
}

Seconds iteration_time(const StageTimes& t, PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kSequential:
      return t.sampling() + t.load + t.transfer + t.propagation();
    case PipelineMode::kSinglePrefetch:
      // Loading and transfer fused into one prefetch stage.
      return std::max({t.sampling(), t.load + t.transfer, t.propagation()});
    case PipelineMode::kTwoStagePrefetch:
      // Eq. 6: the four stages each occupy their own pipeline slot; the
      // slowest one sets the steady-state iteration time.
      return std::max({t.sampling(), t.load, t.transfer, t.propagation()});
  }
  throw std::invalid_argument("iteration_time: unknown mode");
}

namespace {
int pipeline_depth(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kSequential: return 1;
    case PipelineMode::kSinglePrefetch: return 3;
    case PipelineMode::kTwoStagePrefetch: return 4;
  }
  return 1;
}
}  // namespace

Seconds pipeline_fill(const StageTimes& t, PipelineMode mode) {
  return std::max(0.0, t.sampling() + t.load + t.transfer + t.propagation() -
                           iteration_time(t, mode));
}

Seconds epoch_time(const StageTimes& t, PipelineMode mode, long iterations) {
  if (iterations <= 0) return 0.0;
  const Seconds steady = iteration_time(t, mode);
  const int depth = pipeline_depth(mode);
  if (iterations < depth) {
    return t.sampling() + t.load + t.transfer + t.propagation() +
           static_cast<double>(iterations - 1) * steady;
  }
  return pipeline_fill(t, mode) + static_cast<double>(iterations) * steady;
}

}  // namespace hyscale
