// Tests for runtime/: stage-time composition (Fig. 7 pipeline), the DRM
// engine (every Algorithm-1 branch), the training protocol handshake,
// the synchronizer, the performance model and the task mapper.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "nn/model.hpp"
#include "runtime/drm.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/protocol.hpp"
#include "runtime/stage_times.hpp"
#include "runtime/sync.hpp"
#include "runtime/task_mapper.hpp"
#include "tensor/init.hpp"

namespace hyscale {
namespace {

StageTimes times_ms(double sc, double sa, double load, double tran, double tc, double ta,
                    double sync = 0.1) {
  StageTimes t;
  t.sample_cpu = sc * 1e-3;
  t.sample_accel = sa * 1e-3;
  t.load = load * 1e-3;
  t.transfer = tran * 1e-3;
  t.train_cpu = tc * 1e-3;
  t.train_accel = ta * 1e-3;
  t.sync = sync * 1e-3;
  return t;
}

TEST(StageTimes, BundleAndPropagation) {
  const StageTimes t = times_ms(1, 2, 3, 4, 5, 6, 0.5);
  EXPECT_DOUBLE_EQ(t.accel_bundle(), 6e-3);       // max(tran, ta)
  EXPECT_DOUBLE_EQ(t.sampling(), 2e-3);           // max(sc, sa)
  EXPECT_NEAR(t.propagation(), 6.5e-3, 1e-12);    // max(tc, ta) + sync
}

TEST(StageTimes, IterationTimeOrderingAcrossModes) {
  const StageTimes t = times_ms(2, 0, 3, 4, 5, 6, 0.5);
  const Seconds seq = iteration_time(t, PipelineMode::kSequential);
  const Seconds single = iteration_time(t, PipelineMode::kSinglePrefetch);
  const Seconds two = iteration_time(t, PipelineMode::kTwoStagePrefetch);
  // More pipelining never hurts steady-state iteration time.
  EXPECT_LE(two, single);
  EXPECT_LE(single, seq);
  EXPECT_NEAR(seq, (2 + 3 + 4 + 6.5) * 1e-3, 1e-12);
  EXPECT_NEAR(single, std::max(3.0 + 4.0, 6.5) * 1e-3, 1e-12);
  EXPECT_NEAR(two, 6.5e-3, 1e-12);
}

TEST(StageTimes, TwoStageDecouplesLoadAndTransfer) {
  // Load 5 ms and transfer 5 ms: fused they dominate (10 ms); two-stage
  // pipelining hides one behind the other (the §IV-B motivation).
  const StageTimes t = times_ms(1, 0, 5, 5, 1, 6, 0);
  EXPECT_NEAR(iteration_time(t, PipelineMode::kSinglePrefetch), 10e-3, 1e-12);
  EXPECT_NEAR(iteration_time(t, PipelineMode::kTwoStagePrefetch), 6e-3, 1e-12);
}

TEST(StageTimes, EpochTimeAccountsFillAndIterations) {
  const StageTimes t = times_ms(1, 0, 1, 1, 0, 2, 0);
  const Seconds one = epoch_time(t, PipelineMode::kTwoStagePrefetch, 1);
  const Seconds hundred = epoch_time(t, PipelineMode::kTwoStagePrefetch, 100);
  EXPECT_GT(one, iteration_time(t, PipelineMode::kTwoStagePrefetch));
  EXPECT_NEAR(hundred, 100 * 2e-3 + (1 + 1 + 1 + 2 - 2) * 1e-3, 1e-9);
  EXPECT_DOUBLE_EQ(epoch_time(t, PipelineMode::kTwoStagePrefetch, 0), 0.0);
}

TEST(StageTimes, Names) {
  EXPECT_STREQ(stage_name(Stage::kLoad), "TLoad");
  EXPECT_STREQ(pipeline_mode_name(PipelineMode::kTwoStagePrefetch), "two-stage prefetch");
  EXPECT_FALSE(times_ms(1, 1, 1, 1, 1, 1).to_string().empty());
}

// ------------------------------------------------------------------ DRM --

WorkloadAssignment default_workload() {
  WorkloadAssignment w;
  w.cpu_batch = 512;
  w.accel_batch = 1024;
  w.num_accelerators = 4;
  w.threads = {128, 32, 32, 64};
  return w;
}

TEST(Drm, AccelBottleneckMovesWorkToCpu) {
  DrmEngine drm;
  WorkloadAssignment w = default_workload();
  const std::int64_t total = w.total_batch();
  // Accelerator bundle (train 20 ms) dominates; CPU trainer is fast.
  const DrmAction action = drm.step(times_ms(1, 0, 2, 3, 4, 20), w);
  EXPECT_EQ(action.kind, DrmAction::Kind::kBalanceWork);
  EXPECT_EQ(action.bottleneck, Stage::kTrainAccel);
  EXPECT_LT(action.batch_moved, 0);  // accel -> CPU
  EXPECT_GT(w.cpu_batch, 512);
  EXPECT_EQ(w.total_batch(), total);  // §IV-A invariant
}

TEST(Drm, TransferBottleneckAlsoShrinksAccelWork) {
  // Algorithm 1 bundles TTran with TTA: a PCIe-bound system sheds
  // accelerator work (the paper's stated limitation).
  DrmEngine drm;
  WorkloadAssignment w = default_workload();
  drm.step(times_ms(1, 0, 2, 30, 4, 3), w);
  EXPECT_GT(w.cpu_batch, 512);
}

TEST(Drm, LoadBottleneckMovesThreadsToLoader) {
  DrmEngine drm;
  WorkloadAssignment w = default_workload();
  const int loader_before = w.threads.loader;
  const int total_before = w.threads.used();
  const DrmAction action = drm.step(times_ms(1, 0, 20, 3, 2, 4), w);
  EXPECT_EQ(action.kind, DrmAction::Kind::kBalanceThread);
  EXPECT_EQ(action.thread_to, Stage::kLoad);
  EXPECT_EQ(action.thread_from, Stage::kSampleCpu);  // fastest CPU task
  EXPECT_GT(w.threads.loader, loader_before);
  EXPECT_EQ(w.threads.used(), total_before);  // threads conserved
}

TEST(Drm, CpuSamplerBottleneckShiftsToAccelWhenAccelFastest) {
  DrmConfig config;
  config.accel_sampling_available = true;
  DrmEngine drm(config);
  WorkloadAssignment w = default_workload();
  w.accel_sample_fraction = 0.0;
  // TSC dominates, TSA is the global fastest.
  const DrmAction action = drm.step(times_ms(20, 0.1, 3, 4, 5, 6), w);
  EXPECT_EQ(action.kind, DrmAction::Kind::kBalanceSampling);
  EXPECT_GT(w.accel_sample_fraction, 0.0);
}

TEST(Drm, CpuSamplerBottleneckLookaheadCase) {
  // Fastest = T_Accel, second = TSA  -> still shift sampling to accel
  // (Algorithm 1 lines 20-21).
  DrmConfig config;
  config.accel_sampling_available = true;
  DrmEngine drm(config);
  WorkloadAssignment w = default_workload();
  const DrmAction action = drm.step(times_ms(20, 0.5, 3, 0.1, 5, 0.2), w);
  EXPECT_EQ(action.kind, DrmAction::Kind::kBalanceSampling);
}

TEST(Drm, CpuSamplerBottleneckFallsBackToThreads) {
  DrmEngine drm;  // no accel sampling
  WorkloadAssignment w = default_workload();
  const int sampler_before = w.threads.sampler;
  const DrmAction action = drm.step(times_ms(20, 0, 3, 4, 0.5, 6), w);
  EXPECT_EQ(action.kind, DrmAction::Kind::kBalanceThread);
  EXPECT_EQ(action.thread_to, Stage::kSampleCpu);
  EXPECT_GT(w.threads.sampler, sampler_before);
}

TEST(Drm, CpuTrainerBottleneckMovesWorkWhenAccelFastest) {
  DrmEngine drm;
  WorkloadAssignment w = default_workload();
  const std::int64_t cpu_before = w.cpu_batch;
  // TTC dominates; T_Accel is fastest -> balance_work toward accel.
  const DrmAction action = drm.step(times_ms(2, 0, 3, 0.2, 20, 0.3), w);
  EXPECT_EQ(action.kind, DrmAction::Kind::kBalanceWork);
  EXPECT_LT(w.cpu_batch, cpu_before);
}

TEST(Drm, CpuTrainerBottleneckFallsBackToThreads) {
  DrmEngine drm;
  WorkloadAssignment w = default_workload();
  // TTC dominates; fastest is TLoad (a CPU task) -> balance_thread.
  const DrmAction action = drm.step(times_ms(5, 0, 0.1, 4, 20, 6), w);
  EXPECT_EQ(action.kind, DrmAction::Kind::kBalanceThread);
  EXPECT_EQ(action.thread_to, Stage::kTrainCpu);
}

TEST(Drm, AccelSamplerBottleneckShiftsSamplingBack) {
  DrmConfig config;
  config.accel_sampling_available = true;
  DrmEngine drm(config);
  WorkloadAssignment w = default_workload();
  w.accel_sample_fraction = 0.5;
  const DrmAction action = drm.step(times_ms(1, 20, 3, 4, 5, 6), w);
  EXPECT_EQ(action.kind, DrmAction::Kind::kBalanceSampling);
  EXPECT_LT(w.accel_sample_fraction, 0.5);
}

TEST(Drm, ThreadMoveKeepsOneThreadMinimum) {
  DrmEngine drm;
  WorkloadAssignment w = default_workload();
  w.threads = {128, 2, 2, 124};
  // Load bottleneck; fastest CPU task has only 2 threads -> the step of
  // 2 is capped at 1.
  const DrmAction action = drm.step(times_ms(0.1, 0, 20, 3, 0.2, 4), w);
  EXPECT_EQ(action.threads_moved, 1);
  EXPECT_GE(w.threads.sampler, 1);
  EXPECT_GE(w.threads.trainer, 1);
}

TEST(Drm, ConvergesToBalancedSplit) {
  // Synthetic platform: the CPU trainer processes 50 seeds/ms at 64
  // threads (linear in threads); each accelerator 200 seeds/ms.  Both DRM
  // moves are live here — balance_work shifts seeds, balance_thread
  // re-allocates trainer threads — and iterating the engine must drive
  // the CPU and accelerator stage times together.
  DrmEngine drm;
  WorkloadAssignment w = default_workload();
  const std::int64_t total = w.total_batch();
  auto cpu_time = [&](const WorkloadAssignment& wl) {
    const double rate = 50e3 * static_cast<double>(wl.threads.trainer) / 64.0;
    return static_cast<double>(wl.cpu_batch) / rate;
  };
  StageTimes t;
  for (int i = 0; i < 60; ++i) {
    t = StageTimes{};
    t.train_cpu = cpu_time(w);
    t.train_accel = static_cast<double>(w.accel_batch) / 200e3;
    t.transfer = t.train_accel * 0.5;
    t.sample_cpu = 1e-6;
    t.load = 1e-6;
    drm.step(t, w);
  }
  EXPECT_EQ(w.total_batch(), total);
  const double t_cpu = cpu_time(w);
  const double t_accel = static_cast<double>(w.accel_batch) / 200e3;
  // Converged: the bottleneck gap has closed to a modest factor.
  EXPECT_NEAR(t_cpu / t_accel, 1.0, 0.35);
}

TEST(Workload, TotalAndValidity) {
  WorkloadAssignment w = default_workload();
  EXPECT_EQ(w.total_batch(), 512 + 4 * 1024);
  EXPECT_TRUE(w.threads.valid());
  w.threads.sampler = -1;
  EXPECT_FALSE(w.threads.valid());
  EXPECT_FALSE(w.to_string().empty());
}

// ------------------------------------------------------------- Protocol --

TEST(Protocol, HandshakeCompletesAcrossIterations) {
  constexpr int kTrainers = 4;
  constexpr int kIterations = 25;
  TrainingProtocol protocol(kTrainers);
  std::vector<int> work_done(kTrainers, 0);

  std::vector<std::thread> trainers;
  for (int t = 0; t < kTrainers; ++t) {
    trainers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        ++work_done[static_cast<std::size_t>(t)];
        protocol.trainer_done();
        protocol.wait_ack();
      }
    });
  }
  for (int i = 0; i < kIterations; ++i) {
    protocol.wait_all_done();
    const std::int64_t generation = protocol.broadcast_ack();
    protocol.wait_iteration_complete(generation);
  }
  for (auto& t : trainers) t.join();
  for (int done : work_done) EXPECT_EQ(done, kIterations);
  EXPECT_EQ(protocol.iteration(), kIterations);
}

TEST(Protocol, MisuseThrows) {
  TrainingProtocol protocol(1);
  EXPECT_THROW(protocol.broadcast_ack(), std::logic_error);  // before DONE
  protocol.trainer_done();
  EXPECT_THROW(protocol.trainer_done(), std::logic_error);  // extra DONE
  EXPECT_THROW(TrainingProtocol(0), std::invalid_argument);
}

// ---------------------------------------------------------- Synchronizer --

ModelConfig small_model() {
  ModelConfig config;
  config.kind = GnnKind::kGcn;
  config.dims = {4, 3};
  config.seed = 5;
  return config;
}

TEST(Synchronizer, WeightedAverageIsExact) {
  GnnModel a(small_model()), b(small_model());
  // Grads: a = 1 everywhere, b = 4 everywhere; weights 1 and 3 ->
  // average (1*1 + 3*4)/4 = 3.25.
  for (auto* p : a.parameters()) p->grad.fill(1.0f);
  for (auto* p : b.parameters()) p->grad.fill(4.0f);
  std::vector<GnnModel*> replicas = {&a, &b};
  Synchronizer::allreduce(replicas, {1, 3});
  for (auto* p : a.parameters()) {
    for (float g : p->grad.flat()) EXPECT_FLOAT_EQ(g, 3.25f);
  }
  for (auto* p : b.parameters()) {
    for (float g : p->grad.flat()) EXPECT_FLOAT_EQ(g, 3.25f);
  }
}

TEST(Synchronizer, ZeroWeightReplicaReceivesButDoesNotContribute) {
  GnnModel a(small_model()), b(small_model());
  for (auto* p : a.parameters()) p->grad.fill(2.0f);
  for (auto* p : b.parameters()) p->grad.fill(999.0f);
  std::vector<GnnModel*> replicas = {&a, &b};
  Synchronizer::allreduce(replicas, {5, 0});
  for (auto* p : b.parameters()) {
    for (float g : p->grad.flat()) EXPECT_FLOAT_EQ(g, 2.0f);
  }
}

TEST(Synchronizer, UniformOverloadMatchesManual) {
  GnnModel a(small_model()), b(small_model());
  for (auto* p : a.parameters()) p->grad.fill(1.0f);
  for (auto* p : b.parameters()) p->grad.fill(3.0f);
  std::vector<GnnModel*> replicas = {&a, &b};
  Synchronizer::allreduce(replicas);
  for (auto* p : a.parameters()) {
    for (float g : p->grad.flat()) EXPECT_FLOAT_EQ(g, 2.0f);
  }
}

TEST(Synchronizer, AllZeroWeightsIsNoop) {
  GnnModel a(small_model());
  for (auto* p : a.parameters()) p->grad.fill(7.0f);
  std::vector<GnnModel*> replicas = {&a};
  Synchronizer::allreduce(replicas, {0});
  for (auto* p : a.parameters()) {
    for (float g : p->grad.flat()) EXPECT_FLOAT_EQ(g, 7.0f);
  }
}

TEST(Synchronizer, MismatchedWeightsThrow) {
  GnnModel a(small_model());
  std::vector<GnnModel*> replicas = {&a};
  EXPECT_THROW(Synchronizer::allreduce(replicas, {1, 2}), std::invalid_argument);
  EXPECT_THROW(Synchronizer::allreduce(replicas, {-1}), std::invalid_argument);
}

// ------------------------------------------------------ PerformanceModel --

PerformanceModel papers_fpga_model() {
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.dims = {128, 256, 172};
  return PerformanceModel(cpu_fpga_platform(4), model, dataset_info("ogbn-papers100M"),
                          {25, 10});
}

TEST(PerfModel, StageTimesPositive) {
  const PerformanceModel pm = papers_fpga_model();
  WorkloadAssignment w = default_workload();
  const StageTimes t = pm.stage_times(w);
  EXPECT_GT(t.sample_cpu, 0.0);
  EXPECT_GT(t.load, 0.0);
  EXPECT_GT(t.transfer, 0.0);
  EXPECT_GT(t.train_cpu, 0.0);
  EXPECT_GT(t.train_accel, 0.0);
  EXPECT_GT(t.sync, 0.0);
}

TEST(PerfModel, IterationsPerEpoch) {
  const PerformanceModel pm = papers_fpga_model();
  WorkloadAssignment w = default_workload();  // total 4608
  const long iters = pm.iterations_per_epoch(w);
  EXPECT_EQ(iters, static_cast<long>((1207179 + 4608 - 1) / 4608));
}

TEST(PerfModel, MorePipeliningNeverSlower) {
  const PerformanceModel pm = papers_fpga_model();
  WorkloadAssignment w = default_workload();
  EXPECT_LE(pm.predict_iteration(w, PipelineMode::kTwoStagePrefetch),
            pm.predict_iteration(w, PipelineMode::kSinglePrefetch));
  EXPECT_LE(pm.predict_iteration(w, PipelineMode::kSinglePrefetch),
            pm.predict_iteration(w, PipelineMode::kSequential));
}

TEST(PerfModel, ThroughputPositiveAndConsistent) {
  const PerformanceModel pm = papers_fpga_model();
  WorkloadAssignment w = default_workload();
  const double mteps = pm.throughput_mteps(w, PipelineMode::kTwoStagePrefetch);
  EXPECT_GT(mteps, 0.0);
}

TEST(PerfModel, EpochScalesDownWithMoreAccelerators) {
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.dims = {128, 256, 172};
  const DatasetInfo info = dataset_info("ogbn-papers100M");
  Seconds previous = 1e18;
  for (int k : {1, 2, 4, 8}) {
    PerformanceModel pm(cpu_fpga_platform(k), model, info, {25, 10});
    WorkloadAssignment w;
    w.cpu_batch = 512;
    w.accel_batch = 1024;
    w.num_accelerators = k;
    w.threads = {128, 32, 32, 64};
    const Seconds epoch = pm.predict_epoch(w, PipelineMode::kTwoStagePrefetch);
    EXPECT_LT(epoch, previous);
    previous = epoch;
  }
}

TEST(PerfModel, ModelParamBytes) {
  ModelConfig gcn;
  gcn.kind = GnnKind::kGcn;
  gcn.dims = {128, 256, 172};
  // GCN: (128*256 + 256) + (256*172 + 172) params * 4 bytes.
  EXPECT_DOUBLE_EQ(model_param_bytes(gcn), (128.0 * 256 + 256 + 256 * 172 + 172) * 4.0);
  ModelConfig sage = gcn;
  sage.kind = GnnKind::kSage;
  EXPECT_GT(model_param_bytes(sage), model_param_bytes(gcn));
}

TEST(PerfModel, RejectsMismatchedFanouts) {
  ModelConfig model;
  model.dims = {128, 256, 172};
  EXPECT_THROW(
      PerformanceModel(cpu_fpga_platform(4), model, dataset_info("ogbn-papers100M"), {25}),
      std::invalid_argument);
}

// ----------------------------------------------------------- TaskMapper --

TEST(TaskMapper, HybridMappingAssignsCpuWork) {
  const PerformanceModel pm = papers_fpga_model();
  TaskMapperOptions options;
  options.hybrid = true;
  const WorkloadAssignment w = initial_task_mapping(pm, options);
  EXPECT_EQ(w.num_accelerators, 4);
  EXPECT_EQ(w.accel_batch, 1024);
  EXPECT_GE(w.cpu_batch, 0);
  EXPECT_TRUE(w.threads.valid());
}

TEST(TaskMapper, NonHybridMappingHasNoCpuTrainer) {
  const PerformanceModel pm = papers_fpga_model();
  TaskMapperOptions options;
  options.hybrid = false;
  const WorkloadAssignment w = initial_task_mapping(pm, options);
  EXPECT_EQ(w.cpu_batch, 0);
}

TEST(TaskMapper, CpuOnlyPlatformStillTrains) {
  ModelConfig model;
  model.kind = GnnKind::kGcn;
  model.dims = {128, 256, 172};
  PerformanceModel pm(cpu_fpga_platform(0), model, dataset_info("ogbn-papers100M"), {25, 10});
  const WorkloadAssignment w = initial_task_mapping(pm);
  EXPECT_EQ(w.num_accelerators, 0);
  EXPECT_GT(w.cpu_batch, 0);
}

}  // namespace
}  // namespace hyscale
