#include "runtime/hybrid_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "runtime/protocol.hpp"
#include "runtime/sync.hpp"

namespace hyscale {
namespace {

// Simulation overheads — the effects the paper's model does NOT capture
// and blames for its 5-14% error (§VI-C): kernel-launch set-up and
// pipeline flushing.
constexpr Seconds kLaunchOverhead = 150e-6;       ///< per iteration, per accelerator
constexpr Seconds kFlushOverheadFraction = 0.04;  ///< fraction of propagation lost to flush
/// Per-iteration cost of the stage barriers and DONE/ACK handshake
/// (§III-C sets a barrier at the end of every pipeline stage); applied
/// to the whole iteration, also outside the analytic model.
constexpr double kBarrierOverheadFraction = 0.05;
constexpr Seconds kBarrierLatency = 100e-6;

}  // namespace

HybridTrainer::HybridTrainer(const Dataset& dataset, PlatformSpec platform,
                             HybridTrainerConfig config)
    : dataset_(dataset), platform_(std::move(platform)), config_(std::move(config)), drm_() {
  ModelConfig model_config;
  model_config.kind = config_.model_kind;
  model_config.dims = {dataset_.info.f0, dataset_.info.f1, dataset_.info.f2};
  // The paper always trains 2-layer models; support deeper fanouts by
  // inserting extra hidden layers of width f1 (used for the DistDGLv2
  // 3-layer comparison, Table V).
  while (static_cast<int>(model_config.dims.size()) - 1 <
         static_cast<int>(config_.fanouts.size())) {
    model_config.dims.insert(model_config.dims.begin() + 1, dataset_.info.f1);
  }
  model_config.seed = config_.seed;

  perf_model_ = std::make_unique<PerformanceModel>(platform_, model_config, dataset_.info,
                                                   config_.fanouts);
  perf_model_->set_transfer_bytes_per_element(
      wire_bytes_per_element(config_.transfer_precision));

  if (config_.use_task_mapper) {
    TaskMapperOptions mapper_options;
    mapper_options.per_trainer_batch = config_.per_trainer_batch;
    mapper_options.hybrid = config_.hybrid;
    mapper_options.mode = config_.pipeline;
    initial_workload_ = initial_task_mapping(*perf_model_, mapper_options);
  } else {
    // Uninformed heuristic mapping (no performance model).
    initial_workload_.num_accelerators = platform_.num_accelerators();
    initial_workload_.accel_batch =
        initial_workload_.num_accelerators > 0 ? config_.per_trainer_batch : 0;
    initial_workload_.cpu_batch = config_.hybrid || initial_workload_.num_accelerators == 0
                                      ? config_.per_trainer_batch / 2
                                      : 0;
    initial_workload_.threads.total = platform_.cpu_threads;
    initial_workload_.threads.sampler = platform_.cpu_threads / 4;
    initial_workload_.threads.loader = platform_.cpu_threads / 4;
    initial_workload_.threads.trainer = platform_.cpu_threads / 2;
  }
  if (!config_.hybrid) initial_workload_.cpu_batch = 0;
  workload_ = initial_workload_;

  DrmConfig drm_config;
  // Sampler instances may run on an accelerator whenever the platform
  // has one that samples.
  drm_config.accel_sampling_available =
      platform_.num_accelerators() > 0 &&
      SamplerModel::accelerator_rate(platform_.accelerators.front()) > 0.0;
  drm_ = DrmEngine(drm_config);

  // One model replica + optimizer per trainer: replica 0 is the CPU
  // trainer, replicas 1..k the accelerators.  All start from identical
  // weights (replicated initial model).
  const int num_trainers = 1 + platform_.num_accelerators();
  for (int t = 0; t < num_trainers; ++t) {
    replicas_.push_back(std::make_unique<GnnModel>(model_config));
    optimizers_.push_back(std::make_unique<SgdOptimizer>(config_.learning_rate));
  }
  for (std::size_t t = 1; t < replicas_.size(); ++t) {
    replicas_[t]->copy_values_from(*replicas_.front());
  }

  sampler_ = std::make_unique<NeighborSampler>(dataset_.graph, config_.fanouts, config_.seed);
  loader_ = std::make_unique<FeatureLoader>(dataset_.features);
}

std::vector<VertexId> HybridTrainer::next_real_seeds(std::int64_t count, std::uint64_t salt) {
  if (shuffled_train_.empty() || train_cursor_ + static_cast<std::size_t>(count) >
                                     shuffled_train_.size()) {
    shuffled_train_ = dataset_.train_ids;
    Xoshiro256 rng(config_.seed + 77770 + (shuffle_round_++) + salt);
    for (std::size_t i = shuffled_train_.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.bounded(i));
      std::swap(shuffled_train_[i - 1], shuffled_train_[j]);
    }
    train_cursor_ = 0;
  }
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(count),
                                          shuffled_train_.size());
  std::vector<VertexId> seeds(shuffled_train_.begin() + static_cast<std::ptrdiff_t>(train_cursor_),
                              shuffled_train_.begin() +
                                  static_cast<std::ptrdiff_t>(train_cursor_ + take));
  train_cursor_ += take;
  return seeds;
}

HybridTrainer::RealIterationResult HybridTrainer::run_real_iteration() {
  RealIterationResult result;
  const int num_trainers = static_cast<int>(replicas_.size());

  // Split the (scaled) real batch proportionally to the simulated
  // workload assignment so the numerics follow the same skew DRM creates.
  const std::int64_t sim_total = std::max<std::int64_t>(1, workload_.total_batch());
  std::vector<std::int64_t> real_sizes(static_cast<std::size_t>(num_trainers), 0);
  real_sizes[0] = config_.real_batch_total * workload_.cpu_batch / sim_total;
  for (int a = 0; a < platform_.num_accelerators(); ++a) {
    real_sizes[static_cast<std::size_t>(a) + 1] =
        config_.real_batch_total * workload_.accel_batch / sim_total;
  }
  // Guarantee at least one active trainer.
  if (std::accumulate(real_sizes.begin(), real_sizes.end(), std::int64_t{0}) == 0) {
    real_sizes[num_trainers > 1 ? 1 : 0] = config_.real_batch_total;
  }

  // Sample + load features for every trainer (Sampler + Feature Loader
  // stages), measuring the edge-count jitter against expectation.
  std::vector<MiniBatch> batches(static_cast<std::size_t>(num_trainers));
  std::vector<Tensor> features(static_cast<std::size_t>(num_trainers));
  double measured_edges = 0.0, expected_edges = 0.0;
  for (int t = 0; t < num_trainers; ++t) {
    const std::int64_t size = real_sizes[static_cast<std::size_t>(t)];
    if (size == 0) continue;
    auto seeds = next_real_seeds(size, static_cast<std::uint64_t>(t));
    batches[static_cast<std::size_t>(t)] = sampler_->sample(seeds);
    loader_->load(batches[static_cast<std::size_t>(t)], features[static_cast<std::size_t>(t)]);
    // int8 transfers round-trip the accelerator trainers' inputs through
    // real quantization (t == 0 is the CPU trainer: no PCIe hop).
    if (t > 0 && config_.transfer_precision == TransferPrecision::kInt8) {
      quantize_roundtrip_int8(features[static_cast<std::size_t>(t)]);
    }
    measured_edges +=
        static_cast<double>(batches[static_cast<std::size_t>(t)].stats().total_edges());
    const BatchStats expect = NeighborSampler::expected_stats(
        size, config_.fanouts, dataset_.graph.mean_degree(),
        static_cast<std::uint64_t>(dataset_.graph.num_vertices()));
    expected_edges += static_cast<double>(expect.total_edges());
  }
  result.edge_jitter =
      expected_edges > 0.0 ? std::clamp(measured_edges / expected_edges, 0.5, 2.0) : 1.0;

  // Forward/backward on every active trainer through the Processor-
  // Accelerator Training Protocol (Listing 1): trainer threads signal
  // DONE, the synchronizer all-reduces, ACK releases the weight update.
  TrainingProtocol protocol(num_trainers);
  std::vector<double> losses(static_cast<std::size_t>(num_trainers), 0.0);
  std::vector<double> accuracies(static_cast<std::size_t>(num_trainers), 0.0);

  std::vector<std::thread> trainer_threads;
  trainer_threads.reserve(static_cast<std::size_t>(num_trainers));
  for (int t = 0; t < num_trainers; ++t) {
    trainer_threads.emplace_back([&, t] {
      GnnModel& replica = *replicas_[static_cast<std::size_t>(t)];
      replica.zero_grad();
      if (real_sizes[static_cast<std::size_t>(t)] > 0) {
        const MiniBatch& batch = batches[static_cast<std::size_t>(t)];
        const Tensor logits = replica.forward(batch, features[static_cast<std::size_t>(t)]);
        std::vector<int> labels(batch.seeds.size());
        for (std::size_t i = 0; i < batch.seeds.size(); ++i) {
          labels[i] = dataset_.labels[static_cast<std::size_t>(batch.seeds[i])];
        }
        LossResult loss = softmax_cross_entropy(logits, labels);
        replica.backward(batch, loss.d_logits);
        losses[static_cast<std::size_t>(t)] = loss.loss;
        accuracies[static_cast<std::size_t>(t)] =
            static_cast<double>(loss.correct) / static_cast<double>(batch.seeds.size());
      }
      protocol.trainer_done();
      protocol.wait_ack();
      // Weight update after the averaged gradients arrive.
      auto params = replica.parameters();
      optimizers_[static_cast<std::size_t>(t)]->step(params);
    });
  }

  // Synchronizer (runs on the "CPU", §III-B): wait DONE == n, all-reduce
  // weighted by per-trainer seed counts, broadcast ACK.
  protocol.wait_all_done();
  std::vector<GnnModel*> views;
  views.reserve(replicas_.size());
  for (auto& r : replicas_) views.push_back(r.get());
  Synchronizer::allreduce(views, real_sizes);
  const std::int64_t generation = protocol.broadcast_ack();
  protocol.wait_iteration_complete(generation);
  for (auto& thread : trainer_threads) thread.join();

  double weight_sum = 0.0;
  for (int t = 0; t < num_trainers; ++t) {
    const auto w = static_cast<double>(real_sizes[static_cast<std::size_t>(t)]);
    result.loss += losses[static_cast<std::size_t>(t)] * w;
    result.accuracy += accuracies[static_cast<std::size_t>(t)] * w;
    weight_sum += w;
  }
  if (weight_sum > 0.0) {
    result.loss /= weight_sum;
    result.accuracy /= weight_sum;
  }
  return result;
}

BatchStats HybridTrainer::jittered_expected_stats(std::int64_t batch, double jitter) const {
  BatchStats stats = perf_model_->expected_stats(batch);
  for (auto& v : stats.vertices_per_layer)
    v = static_cast<std::int64_t>(static_cast<double>(v) * jitter);
  for (auto& e : stats.edges_per_layer)
    e = static_cast<std::int64_t>(static_cast<double>(e) * jitter);
  return stats;
}

StageTimes HybridTrainer::simulate_stage_times(double jitter) const {
  const BatchStats cpu_stats =
      workload_.cpu_batch > 0 ? jittered_expected_stats(workload_.cpu_batch, jitter)
                              : BatchStats{};
  std::vector<BatchStats> accel_stats;
  if (workload_.num_accelerators > 0 && workload_.accel_batch > 0) {
    accel_stats.assign(static_cast<std::size_t>(workload_.num_accelerators),
                       jittered_expected_stats(workload_.accel_batch, jitter));
  }
  StageTimes times = perf_model_->stage_times(workload_, cpu_stats, accel_stats);
  // Overheads outside the analytic model (§VI-C): kernel launch set-up
  // and pipeline flush.
  if (workload_.num_accelerators > 0) {
    times.train_accel += kLaunchOverhead;
    times.train_accel *= 1.0 + kFlushOverheadFraction;
  }
  times.train_cpu *= 1.0 + kFlushOverheadFraction;
  return times;
}

EpochReport HybridTrainer::train_epoch() {
  EpochReport report;
  report.iterations = perf_model_->iterations_per_epoch(workload_);

  Xoshiro256 jitter_rng(config_.seed + 31337 + static_cast<std::uint64_t>(epoch_counter_));
  ++epoch_counter_;

  double total_edges = 0.0;
  double loss_sum = 0.0, acc_sum = 0.0;
  long real_iters = 0;

  Accumulator acc_sample, acc_load, acc_transfer, acc_train_cpu, acc_train_accel, acc_sync;

  for (long iter = 0; iter < report.iterations; ++iter) {
    double jitter = 1.0;
    if (iter < config_.real_iterations_cap) {
      const RealIterationResult real = run_real_iteration();
      loss_sum += real.loss;
      acc_sum += real.accuracy;
      jitter = real.edge_jitter;
      ++real_iters;
    } else {
      // Synthetic sampling variance, matching the ~3% relative std-dev
      // observed from the real sampler.
      jitter = std::clamp(1.0 + 0.03 * jitter_rng.normal(), 0.8, 1.2);
    }

    const StageTimes times = simulate_stage_times(jitter);
    const Seconds iter_time =
        iteration_time(times, config_.pipeline) * (1.0 + kBarrierOverheadFraction) +
        kBarrierLatency;
    report.epoch_time += iter_time;

    acc_sample.add(times.sampling());
    acc_load.add(times.load);
    acc_transfer.add(times.transfer);
    acc_train_cpu.add(times.train_cpu);
    acc_train_accel.add(times.train_accel);
    acc_sync.add(times.sync);

    // Edges traversed this iteration (Eq. 5 numerator).
    if (workload_.cpu_batch > 0)
      total_edges += static_cast<double>(
          jittered_expected_stats(workload_.cpu_batch, jitter).total_edges());
    if (workload_.num_accelerators > 0)
      total_edges += static_cast<double>(
                         jittered_expected_stats(workload_.accel_batch, jitter).total_edges()) *
                     workload_.num_accelerators;

    IterationRecord record;
    record.iteration = iter;
    record.times = times;
    record.iteration_time = iter_time;
    record.workload = workload_;
    if (config_.drm) {
      record.drm_action = drm_.step(times, workload_);
      // Validate the move against the performance model before keeping
      // it: a bottleneck-guided step that the model predicts to slow the
      // pipeline down (e.g. starving a stage that is about to become the
      // new bottleneck) is rolled back.  This keeps DRM monotone.
      if (record.drm_action.kind != DrmAction::Kind::kNone) {
        const WorkloadAssignment proposed = workload_;
        workload_ = record.workload;
        const Seconds t_old = iteration_time(simulate_stage_times(1.0), config_.pipeline);
        workload_ = proposed;
        const Seconds t_new = iteration_time(simulate_stage_times(1.0), config_.pipeline);
        if (t_new > t_old * 1.001) {
          workload_ = record.workload;  // reject the harmful move
          record.drm_action.kind = DrmAction::Kind::kNone;
        }
      }
    }
    if (static_cast<int>(report.trajectory.size()) < config_.trajectory_cap) {
      report.trajectory.push_back(std::move(record));
    }
  }

  // Pipeline fill cost, once per epoch.
  if (report.iterations > 0)
    report.epoch_time += pipeline_fill(simulate_stage_times(1.0), config_.pipeline);

  report.mteps = report.epoch_time > 0.0 ? total_edges / report.epoch_time / 1e6 : 0.0;
  report.loss = real_iters > 0 ? loss_sum / static_cast<double>(real_iters) : 0.0;
  report.train_accuracy = real_iters > 0 ? acc_sum / static_cast<double>(real_iters) : 0.0;
  report.mean_times.sample_cpu = acc_sample.mean();
  report.mean_times.load = acc_load.mean();
  report.mean_times.transfer = acc_transfer.mean();
  report.mean_times.train_cpu = acc_train_cpu.mean();
  report.mean_times.train_accel = acc_train_accel.mean();
  report.mean_times.sync = acc_sync.mean();
  report.final_workload = workload_;

  log_message(LogLevel::kInfo, "hybrid", "epoch done: time=", report.epoch_time,
              "s mteps=", report.mteps, " loss=", report.loss);
  return report;
}

std::vector<EpochReport> HybridTrainer::train(int epochs) {
  std::vector<EpochReport> reports;
  reports.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) reports.push_back(train_epoch());
  return reports;
}

Seconds HybridTrainer::predicted_epoch_time() const {
  return perf_model_->predict_epoch(initial_workload_, config_.pipeline);
}

double HybridTrainer::evaluate_accuracy(std::int64_t max_seeds) {
  const auto count = std::min<std::int64_t>(
      max_seeds, static_cast<std::int64_t>(dataset_.train_ids.size()));
  std::vector<VertexId> seeds(dataset_.train_ids.begin(),
                              dataset_.train_ids.begin() + static_cast<std::ptrdiff_t>(count));
  MiniBatch batch = sampler_->sample(seeds);
  Tensor x;
  loader_->load(batch, x);
  const Tensor logits = replicas_.front()->forward(batch, x);
  std::vector<int> labels(batch.seeds.size());
  for (std::size_t i = 0; i < batch.seeds.size(); ++i) {
    labels[i] = dataset_.labels[static_cast<std::size_t>(batch.seeds[i])];
  }
  return accuracy(logits, labels);
}

}  // namespace hyscale
