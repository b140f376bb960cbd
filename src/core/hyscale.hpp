// HyScale-GNN public API.
//
// Umbrella header plus a small facade for the common workflow:
//
//   #include "core/hyscale.hpp"
//
//   auto dataset = hyscale::materialize_dataset("ogbn-products");
//   hyscale::HyScale system(dataset, hyscale::cpu_fpga_platform(4));
//   auto reports = system.train(/*epochs=*/3);
//
// Lower-level pieces (samplers, cost models, DRM, baselines) are all
// reachable through the headers re-exported here.
#pragma once

#include "baselines/distdgl.hpp"
#include "baselines/p3.hpp"
#include "baselines/pagraph.hpp"
#include "baselines/pyg.hpp"
#include "baselines/reference_trainer.hpp"
#include "device/cost_model.hpp"
#include "device/fpga_model.hpp"
#include "device/link.hpp"
#include "device/sampler_model.hpp"
#include "device/spec.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generator.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "nn/checkpoint.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/flightrec.hpp"
#include "obs/telemetry.hpp"
#include "runtime/drm.hpp"
#include "runtime/feature_cache.hpp"
#include "runtime/feature_loader.hpp"
#include "runtime/hybrid_trainer.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/protocol.hpp"
#include "runtime/stage_times.hpp"
#include "runtime/sync.hpp"
#include "runtime/task_mapper.hpp"
#include "runtime/trace.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sampling/sorted_edges.hpp"
#include "serving/serving.hpp"
#include "shard/shard.hpp"
#include "stream/stream.hpp"
#include "tensor/quantize.hpp"

namespace hyscale {

/// Library version.
inline constexpr const char* kVersion = "1.0.0";

/// A live serving deployment, static, flat or sharded: the evolving
/// graph (none when static), the ServingBackend seam the server runs
/// on, the inference server, and the background lifecycle threads —
/// per-shard compactors (annihilate-then-fold; exactly one in flat
/// mode), SLO publishers (staleness budget, on by default), the
/// CutAdopter folding per-shard publishes into consistent cuts (sharded
/// only), and a TTL expiry sweeper over the graph (flat mode only,
/// opt-in).  A static session has only the backend and the server.
///
/// Members are declared in dependency order so teardown is safe: the
/// sweeper stops first (it feeds retirements into the graph), then the
/// adopter (cuts freeze), the publishers and compactors, then the
/// server drains, then the backend detaches its caches, then the graph
/// goes away.  Quiesce your ingest threads before dropping the session.
struct ServingSession {
  std::unique_ptr<StreamingGraph> graph;           ///< flat mode only
  std::unique_ptr<ShardedStreamingGraph> sharded;  ///< sharded mode only
  std::unique_ptr<ServingBackend> backend;
  std::unique_ptr<InferenceServer> server;
  std::vector<std::unique_ptr<Compactor>> compactors;  ///< one per shard (flat: one)
  std::vector<std::unique_ptr<Publisher>> publishers;  ///< one per shard; empty when disabled
  std::unique_ptr<CutAdopter> adopter;     ///< sharded mode only
  std::unique_ptr<ExpirySweeper> sweeper;  ///< flat mode, when the expiry policy is enabled

  StreamingGraph& stream() { return *graph; }
  ShardedStreamingGraph& shards() { return *sharded; }
  /// Flat mode's single lifecycle threads (null when absent).
  Compactor* compactor() { return compactors.empty() ? nullptr : compactors.front().get(); }
  Publisher* publisher() { return publishers.empty() ? nullptr : publishers.front().get(); }
  InferenceResult infer(std::vector<VertexId> seeds) { return server->infer(std::move(seeds)); }
};

/// Facade: dataset + platform + config -> trained model, reports, and an
/// online inference server over the trained weights.
class HyScale {
 public:
  HyScale(const Dataset& dataset, PlatformSpec platform, HybridTrainerConfig config = {})
      : dataset_(&dataset), trainer_(dataset, std::move(platform), std::move(config)) {}

  std::vector<EpochReport> train(int epochs) { return trainer_.train(epochs); }
  EpochReport train_epoch() { return trainer_.train_epoch(); }

  /// Snapshots the current model weights and starts serving them over
  /// the static dataset graph.  Train further and call serve() again for
  /// a fresher snapshot (or hot-swap it into session.server); live
  /// servers keep the weights they were started with.
  ServingSession serve(ServingConfig config = {}) {
    const ModelSnapshot snapshot(trainer_.model());
    ServingSession session;
    session.backend = make_static_backend(*dataset_, config);
    session.server =
        std::make_unique<InferenceServer>(*session.backend, snapshot, std::move(config));
    return session;
  }

  /// Snapshots the current weights and starts serving over an EVOLVING
  /// copy of the dataset's graph: ingest edge/vertex insertions AND
  /// deletions (add_edge/remove_edge, add_vertex/remove_vertex) plus
  /// feature updates through session.stream(), and queries see them
  /// live.  Background lifecycle threads keep the deployment healthy
  /// under sustained churn: the SLO Publisher (on by default) makes
  /// every accepted op visible within `publisher.staleness_budget`
  /// without any caller-paced publish() calls; the Compactor
  /// annihilates cancelled op pairs in place and folds deltas —
  /// dropping tombstoned edges and recycling deleted streamed-in ids —
  /// into fresh CSRs only when the overlay really needs it; and, when
  /// `expiry.enabled()`, the ExpirySweeper retires streamed-in
  /// entities idle past their TTL, yielding while a fold is in
  /// flight.
  ServingSession stream(ServingConfig serving = {}, StreamingConfig streaming = {},
                        CompactionPolicy compaction = {}, PublisherPolicy publisher = {},
                        ExpiryPolicy expiry = {}) {
    const ModelSnapshot snapshot(trainer_.model());
    ServingSession session;
    // The store fixes the wire precision for the whole deployment.
    session.graph = std::make_unique<StreamingGraph>(
        *dataset_, streaming,
        std::make_shared<MutableFeatureStore>(dataset_->features, serving.transfer_precision));
    session.backend = make_streaming_backend(*session.graph, serving);
    session.server =
        std::make_unique<InferenceServer>(*session.backend, snapshot, std::move(serving));
    session.compactors.push_back(std::make_unique<Compactor>(*session.graph, compaction));
    if (publisher.staleness_budget > 0.0)
      session.publishers.push_back(std::make_unique<Publisher>(*session.graph, publisher));
    if (expiry.enabled())
      session.sweeper = std::make_unique<ExpirySweeper>(*session.graph, expiry);
    return session;
  }

  /// Sharded variant of stream(), kept only for perfbench's
  /// churn-sharded workload: the evolving graph is split into
  /// `sharded.num_shards` hash-owned StreamingGraph shards, each with
  /// its own Compactor and SLO Publisher, while a CutAdopter folds the
  /// shards' independent publishes into consistent cross-shard cuts for
  /// the server.  Nothing expires by TTL.
  ServingSession stream_sharded(ShardedConfig sharded = {}, ServingConfig serving = {},
                                CompactionPolicy compaction = {}, PublisherPolicy publisher = {}) {
    const ModelSnapshot snapshot(trainer_.model());
    ServingSession session;
    session.sharded = std::make_unique<ShardedStreamingGraph>(
        *dataset_, std::move(sharded),
        std::make_shared<MutableFeatureStore>(dataset_->features, serving.transfer_precision));
    session.backend = make_sharded_backend(*session.sharded, serving);
    session.server =
        std::make_unique<InferenceServer>(*session.backend, snapshot, std::move(serving));
    for (int s = 0; s < session.sharded->num_shards(); ++s) {
      session.compactors.push_back(
          std::make_unique<Compactor>(session.sharded->shard(s), compaction));
      if (publisher.staleness_budget > 0.0)
        session.publishers.push_back(
            std::make_unique<Publisher>(session.sharded->shard(s), publisher));
    }
    session.adopter = std::make_unique<CutAdopter>(*session.sharded);
    return session;
  }

  HybridTrainer& runtime() { return trainer_; }
  GnnModel& model() { return trainer_.model(); }

 private:
  const Dataset* dataset_;
  HybridTrainer trainer_;
};

}  // namespace hyscale
