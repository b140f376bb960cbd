#include "serving/inference_server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "obs/telemetry.hpp"

namespace hyscale {

namespace {

/// Batch-content hash for per-micro-batch sampler reseeding: the same
/// coalesced seed list always samples the same neighborhoods, whatever
/// worker picks the batch up.
std::uint64_t batch_stream_seed(std::uint64_t base, const std::vector<VertexId>& seeds) {
  std::uint64_t state = base ^ 0x9e3779b97f4a7c15ULL;
  for (VertexId v : seeds) {
    state ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
    state = splitmix64(state);
  }
  return state;
}

int argmax_row(const Tensor& logits, std::int64_t row) {
  int best = 0;
  for (std::int64_t c = 1; c < logits.cols(); ++c) {
    if (logits.at(row, c) > logits.at(row, best)) best = static_cast<int>(c);
  }
  return best;
}

/// Snapshot handles must drop even when sampling/forward throws — the
/// next acquire() needs the session back in its released state.
struct SessionReleaseGuard {
  BackendSession* session;
  ~SessionReleaseGuard() { session->release(); }
};

}  // namespace

InferenceServer::InferenceServer(ServingBackend& backend, const ModelSnapshot& snapshot,
                                 ServingConfig config)
    : config_(std::move(config)),
      num_classes_(snapshot.num_classes()),
      num_layers_(snapshot.num_layers()),
      backend_(backend),
      batcher_(config_.batch) {
  bind_telemetry();
  try {
    init_workers(snapshot);
  } catch (...) {
    // No destructor runs: drop the callbacks over this half-built server.
    if (config_.telemetry != nullptr) config_.telemetry->registry().detach(this);
    throw;
  }
}

void InferenceServer::bind_telemetry() {
  if (config_.telemetry == nullptr) return;
  exemplars_ = &config_.telemetry->exemplars();
  MetricsRegistry& reg = config_.telemetry->registry();
  // The serving.* values read the one record the stats, the cache, the
  // batcher and this server keep; the destructor freezes them once the
  // workers have drained.
  const auto read = [&](const char* name, auto value) {
    reg.register_callback(name, this, [value] { return static_cast<double>(value()); });
  };
  const auto total = [&](const char* name, auto field) {
    read(name, [this, field] { return stats().*field; });
  };
  total("serving.requests_completed", &ServingSnapshot::completed_requests);
  total("serving.requests_rejected", &ServingSnapshot::rejected_requests);
  total("serving.batches", &ServingSnapshot::completed_batches);
  total("serving.seeds", &ServingSnapshot::total_seeds);
  total("serving.batch_requests_total", &ServingSnapshot::batch_requests_total);
  total("serving.cache_hits", &ServingSnapshot::cache_hits);
  total("serving.cache_misses", &ServingSnapshot::cache_misses);
  total("serving.cache_device_bytes", &ServingSnapshot::device_bytes);
  total("serving.cache_host_bytes", &ServingSnapshot::host_bytes);
  total("serving.min_batch_requests", &ServingSnapshot::min_batch_requests);
  total("serving.max_batch_requests", &ServingSnapshot::max_batch_requests);
  reg.register_histogram("serving.latency_ms", this, stats_.latency());
  reg.register_histogram("serving.queue_wait_ms", this, stats_.queue_wait());
  read("serving.queue_depth", [this] { return batcher_.depth(); });
  read("serving.queue_depth_peak", [this] { return batcher_.peak_depth(); });
  read("serving.last_served_version", [this] { return last_served_version(); });
  read("model.epoch", [this] { return model_epoch(); });
  backend_.bind_metrics(reg);
  config_.telemetry->journal().log(
      "serving_start", std::string("backend=") + backend_.name() +
                           " workers=" + std::to_string(config_.num_workers));
}

void InferenceServer::init_workers(const ModelSnapshot& snapshot) {
  if (config_.num_workers < 1)
    throw std::invalid_argument("InferenceServer: num_workers must be >= 1");
  if (!config_.fanouts.empty() &&
      static_cast<int>(config_.fanouts.size()) != num_layers_) {
    throw std::invalid_argument("InferenceServer: fanouts must have one entry per layer");
  }

  workers_.resize(static_cast<std::size_t>(config_.num_workers));
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].model = snapshot.instantiate();
    workers_[w].session = backend_.make_session(config_.seed + w, num_layers_);
    if (config_.telemetry != nullptr) {
      // Hint: the longest stage-to-stage gap while busy.  Workers beat
      // between pipeline stages, so only a single wedged stage (a
      // gather deadlock, a stuck forward) grows the age past it.
      workers_[w].heart = &config_.telemetry->heartbeats().register_thread(
          "serving.worker." + std::to_string(w), /*interval_hint_ns=*/100'000'000);
    }
  }

  pool_ = std::make_unique<ThreadPool>(workers_.size());
  for (auto& worker : workers_) {
    pool_->submit([this, &worker] { worker_loop(worker); });
  }
}

InferenceServer::~InferenceServer() {
  batcher_.shutdown();
  pool_.reset();     // joins the worker loops after they drain the queue
  workers_.clear();  // sessions die before the backend they came from
  if (config_.telemetry != nullptr) config_.telemetry->registry().detach(this);
}

ServingSnapshot InferenceServer::stats() const {
  ServingSnapshot s = stats_.snapshot();
  if (const StaticFeatureCache* cache = backend_.cache(); cache != nullptr) {
    const StaticFeatureCache::LoadStats traffic = cache->totals();
    s.cache_hits = traffic.hits;
    s.cache_misses = traffic.misses;
    s.cache_hit_rate = traffic.hit_rate();
    s.device_bytes = traffic.device_bytes;
    s.host_bytes = traffic.host_bytes;
  }
  return s;
}

std::optional<std::future<InferenceResult>> InferenceServer::try_submit(
    std::vector<VertexId> seeds) {
  if (seeds.empty())
    throw std::invalid_argument("InferenceServer: empty seed list");
  // Streaming vertices become queryable once a version containing them
  // is published (sharded: adopted — execute-time cuts/versions are
  // monotonically newer).
  const VertexId limit = backend_.query_limit();
  for (VertexId v : seeds) {
    if (v < 0 || v >= limit)
      throw std::invalid_argument("InferenceServer: seed vertex out of range");
  }
  InferenceRequest request;
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.seeds = std::move(seeds);
  request.enqueue_time = std::chrono::steady_clock::now();
  auto future = request.promise.get_future();
  if (!batcher_.submit(std::move(request))) {
    stats_.record_rejection();
    return std::nullopt;
  }
  return future;
}

InferenceResult InferenceServer::infer(std::vector<VertexId> seeds) {
  for (;;) {
    auto future = try_submit(seeds);
    if (future) return future->get();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::uint64_t InferenceServer::swap_model(const ModelSnapshot& snapshot) {
  if (snapshot.num_classes() != num_classes_ || snapshot.num_layers() != num_layers_) {
    throw std::invalid_argument(
        "InferenceServer::swap_model: snapshot architecture does not match the serving "
        "model (layer/class counts must be equal)");
  }
  // ModelSnapshot is move-only, so stage a deep copy: the caller keeps
  // their snapshot, the server owns the staged weights for as long as
  // workers may still instantiate from them.
  auto staged = std::make_shared<const ModelSnapshot>(*snapshot.instantiate());
  std::uint64_t epoch;
  {
    std::lock_guard lock(model_mutex_);
    staged_model_ = std::move(staged);
    // Publish the epoch AFTER the snapshot it names: a worker that sees
    // the new epoch and takes the lock is guaranteed to find at least
    // this snapshot staged.
    epoch = model_epoch_.load(std::memory_order_relaxed) + 1;
    model_epoch_.store(epoch, std::memory_order_release);
  }
  if (config_.telemetry != nullptr) {
    config_.telemetry->journal().log(
        "model_swap", std::string("backend=") + backend_.name() +
                          " epoch=" + std::to_string(epoch));
  }
  return epoch;
}

void InferenceServer::refresh_worker_model(Worker& worker) {
  // One relaxed-ish load per batch; only a swap pays the lock.
  if (model_epoch_.load(std::memory_order_acquire) == worker.model_epoch) return;
  std::shared_ptr<const ModelSnapshot> staged;
  std::uint64_t epoch;
  {
    std::lock_guard lock(model_mutex_);
    staged = staged_model_;
    epoch = model_epoch_.load(std::memory_order_relaxed);
  }
  if (!staged) return;  // construction epoch: nothing staged yet
  worker.model = staged->instantiate();
  worker.model_epoch = epoch;
}

void InferenceServer::worker_loop(Worker& worker) {
  std::vector<InferenceRequest> batch;
  for (;;) {
    // Blocking on an empty queue is not a stall: idle while parked in
    // next_batch, busy (and freshly stamped) the moment a batch lands.
    if (worker.heart != nullptr) worker.heart->idle_enter();
    const bool alive = batcher_.next_batch(batch);
    if (worker.heart != nullptr) worker.heart->idle_exit();
    if (!alive) break;
    execute_batch(worker, batch);
  }
  if (worker.heart != nullptr) worker.heart->retire();
}

void InferenceServer::execute_batch(Worker& worker, std::vector<InferenceRequest>& batch) {
  const std::uint64_t batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  const auto pickup = std::chrono::steady_clock::now();
  // The five stage boundaries are stamped only for the exemplar
  // traces; with telemetry off no extra clocks are read.
  const bool diag = exemplars_ != nullptr;
  const std::int64_t pickup_ns = diag ? steady_ns(pickup) : 0;
  try {
    // Hot-swap pickup happens at the batch boundary, BEFORE the
    // snapshot acquire: the whole batch runs on one replica, so a
    // concurrent swap_model can never tear it.
    refresh_worker_model(worker);

    // Coalesce: request seeds concatenate in arrival order, so logits
    // row blocks map back to requests by offset.  Worker-owned scratch:
    // capacity persists across batches.
    std::vector<VertexId>& combined = worker.combined;
    combined.clear();
    for (const auto& request : batch) {
      combined.insert(combined.end(), request.seeds.begin(), request.seeds.end());
    }

    BackendSession& session = *worker.session;
    const std::int64_t sample_begin_ns = diag ? steady_ns() : 0;
    const std::uint64_t freshness = session.acquire();
    SessionReleaseGuard release_guard{&session};
    if (freshness > 0) {
      // Max-merge across workers: two batches can acquire in one order
      // and store in the other, and a plain store would let the gauge
      // go backwards.
      std::uint64_t seen = last_served_version_.load(std::memory_order_relaxed);
      while (seen < freshness &&
             !last_served_version_.compare_exchange_weak(seen, freshness,
                                                         std::memory_order_relaxed)) {
      }
    }
    MiniBatch mb = session.sample(combined, batch_stream_seed(config_.seed, combined));
    const std::int64_t sample_end_ns = diag ? steady_ns() : 0;
    if (worker.heart != nullptr) worker.heart->beat();

    Tensor& x = worker.x;
    (void)session.gather(mb, x, worker.hit_scratch);  // the cache counts its own traffic
    maybe_rerank(static_cast<std::int64_t>(mb.input_nodes().size()));
    const std::int64_t gather_end_ns = diag ? steady_ns() : 0;
    if (worker.heart != nullptr) worker.heart->beat();

    Tensor logits = worker.model->forward(mb, x);
    const std::int64_t forward_end_ns = diag ? steady_ns() : 0;
    if (worker.heart != nullptr) worker.heart->beat();

    const auto completion = std::chrono::steady_clock::now();
    const auto batch_seeds = static_cast<std::int64_t>(combined.size());
    stats_.record_batch(static_cast<std::int64_t>(batch.size()), batch_seeds);

    std::int64_t row = 0;
    for (auto& request : batch) {
      InferenceResult result;
      const auto rows = static_cast<std::int64_t>(request.seeds.size());
      result.logits.resize(rows, logits.cols());
      for (std::int64_t r = 0; r < rows; ++r) {
        const auto src = logits.row(row + r);
        std::copy(src.begin(), src.end(), result.logits.row(r).begin());
        result.predictions.push_back(argmax_row(result.logits, r));
      }
      row += rows;
      result.latency =
          std::chrono::duration<double>(completion - request.enqueue_time).count();
      result.queue_wait =
          std::chrono::duration<double>(pickup - request.enqueue_time).count();
      result.request_id = request.id;
      result.batch_id = batch_id;
      result.batch_requests = static_cast<std::int64_t>(batch.size());
      result.batch_seeds = batch_seeds;
      stats_.record_completion(result.latency, result.queue_wait);
      request.promise.set_value(std::move(result));
    }
    const std::int64_t reply_end_ns = diag ? steady_ns() : 0;
    if (diag) {
      // Offer every member's trace; the ring's threshold fast-path
      // rejects the fast ones with one relaxed load.  Batch stages are
      // shared; only the queue span is per-request.
      RequestTrace trace;
      trace.batch_id = batch_id;
      trace.batch_requests = static_cast<std::int64_t>(batch.size());
      trace.batch_seeds = batch_seeds;
      trace.sample = {sample_begin_ns, sample_end_ns, true};
      trace.gather = {sample_end_ns, gather_end_ns, true};
      trace.forward = {gather_end_ns, forward_end_ns, true};
      trace.reply = {forward_end_ns, reply_end_ns, true};
      trace.done_ns = reply_end_ns;
      for (const auto& request : batch) {
        trace.request_id = request.id;
        trace.enqueue_ns = steady_ns(request.enqueue_time);
        trace.queue = {trace.enqueue_ns, pickup_ns, true};
        exemplars_->offer(trace);
      }
    }
  } catch (...) {
    for (auto& request : batch) {
      try {
        request.promise.set_exception(std::current_exception());
      } catch (const std::future_error&) {
        // promise already satisfied before the failure — nothing to do
      }
    }
  }
}

void InferenceServer::maybe_rerank(std::int64_t gathered_rows) {
  const std::int64_t every = config_.cache_rerank_every_rows;
  if (every <= 0 || gathered_rows <= 0) return;
  if (!backend_.has_cache()) return;
  const std::int64_t total =
      rerank_rows_.fetch_add(gathered_rows, std::memory_order_relaxed) + gathered_rows;
  std::int64_t due = rerank_due_.load(std::memory_order_relaxed);
  while (total >= due + every) {
    // Claim every boundary this total crosses in one CAS so a huge
    // batch issues one re-rank, not a burst, and concurrent workers
    // never double-trigger the same crossing.
    const std::int64_t next = due + every * ((total - due) / every);
    if (!rerank_due_.compare_exchange_weak(due, next, std::memory_order_relaxed)) continue;
    traffic_reranks_.fetch_add(1, std::memory_order_relaxed);
    backend_.rerank();
    break;
  }
}

}  // namespace hyscale
