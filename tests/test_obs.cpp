// Tests for the telemetry plane (src/obs/): registry order, slot and
// kind rules, fixed-bucket histogram percentiles, freeze-on-detach of
// callbacks and borrowed histograms, the lifecycle journal's bounded
// ring and the fold event's CUT / BUILD / REBASE times, the JSON-lines
// exporter — including a snapshot taken while a fold is parked in
// flight — and the count-once contract: every exported scalar of a
// live flat or sharded session equals its component's own count, every
// exported histogram matches its owner's stats(), and both freeze at
// those values on teardown.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/hyscale.hpp"

namespace hyscale {
namespace {

const Dataset& community() {
  static const Dataset ds = make_community_dataset(3, 32, 8, 2);
  return ds;
}

ModelConfig small_model_config() {
  ModelConfig config;
  config.kind = GnnKind::kSage;
  config.dims = {8, 16, 3};
  config.seed = 11;
  return config;
}

// --------------------------------------------------------------- registry

/// A callback that always reads `value`.
std::function<double()> constant(double value) {
  return [value] { return value; };
}

TEST(MetricsRegistry, SnapshotReportsEntriesInRegistrationOrder) {
  MetricsRegistry registry;
  Histogram hist;
  const int owner = 0;
  registry.register_callback("b.count", &owner, constant(2.0));
  registry.register_callback("a.gauge", &owner, constant(1.5));
  registry.register_callback("c.count", &owner, constant(3.0));
  registry.register_histogram("d.hist", &owner, hist);
  hist.observe_ms(1.0);

  const MetricsSnapshot snap = registry.snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.scalars()) names.push_back(name);
  // Registration order, NOT lexicographic: two runs of the same binary
  // wire their values in the same order, so records diff cleanly.
  EXPECT_EQ(names, (std::vector<std::string>{"b.count", "a.gauge", "c.count"}));
  EXPECT_DOUBLE_EQ(snap.value("b.count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("a.gauge"), 1.5);
  ASSERT_EQ(snap.histograms().size(), 1u);
  EXPECT_EQ(snap.histograms()[0].name, "d.hist");
  EXPECT_EQ(snap.histograms()[0].count, 1);  // read at snapshot time
}

TEST(MetricsRegistry, KindMismatchThrowsInBothDirections) {
  MetricsRegistry registry;
  Histogram hist;
  const int owner = 0;
  registry.register_callback("x", &owner, constant(1.0));
  registry.register_histogram("h", &owner, hist);
  EXPECT_THROW(registry.register_histogram("x", &owner, hist), std::invalid_argument);
  EXPECT_THROW(registry.register_callback("h", &owner, constant(2.0)),
               std::invalid_argument);
  // The failed registrations left both slots as they were.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("x"), 1.0);
  EXPECT_NE(snap.histogram("h"), nullptr);
  EXPECT_FALSE(snap.has("h"));
  EXPECT_EQ(snap.histogram("x"), nullptr);
}

TEST(MetricsRegistry, ReRegisteringANameTakesItsSlot) {
  MetricsRegistry registry;
  Histogram first, second;
  const int old_owner = 0, new_owner = 0;
  registry.register_callback("a", &old_owner, constant(1.0));
  registry.register_histogram("h", &old_owner, first);
  registry.register_callback("b", &old_owner, constant(2.0));
  first.observe_ms(1.0);
  // A recreated component takes both names over, in place.
  registry.register_callback("a", &new_owner, constant(10.0));
  registry.register_histogram("h", &new_owner, second);
  second.observe_ms(5.0);
  second.observe_ms(6.0);

  MetricsSnapshot snap = registry.snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.scalars()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(snap.value("a"), 10.0);
  ASSERT_EQ(snap.histograms().size(), 1u);
  EXPECT_EQ(snap.histogram("h")->count, 2);
  EXPECT_DOUBLE_EQ(snap.histogram("h")->max_ms, 6.0);

  // The old owner no longer holds either slot: its detach leaves them live.
  registry.detach(&old_owner);
  second.observe_ms(7.0);
  snap = registry.snapshot();
  EXPECT_EQ(snap.histogram("h")->count, 3);
}

TEST(MetricsRegistry, DetachFreezesAHistogramCopy) {
  MetricsRegistry registry;
  Histogram hist;
  const int owner = 0;
  registry.register_histogram("lat", &owner, hist);
  hist.observe_ms(1.0);
  hist.observe_ms(3.0);
  registry.detach(&owner);  // copies once more and stops reading `hist`
  hist.observe_ms(50.0);    // must never reach the registry
  const MetricsSnapshot snap = registry.snapshot();
  const HistogramView* view = snap.histogram("lat");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->name, "lat");
  EXPECT_EQ(view->count, 2);
  EXPECT_DOUBLE_EQ(view->sum_ms, 4.0);
  EXPECT_DOUBLE_EQ(view->max_ms, 3.0);
}

TEST(MetricsSnapshot, UnknownScalarThrowsInsteadOfReturningZero) {
  MetricsRegistry registry;
  const int owner = 0;
  registry.register_callback("known", &owner, constant(1.0));
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.has("known"));
  EXPECT_FALSE(snap.has("typo"));
  EXPECT_THROW(snap.value("typo"), std::out_of_range);
  EXPECT_THROW(snap.percentile_ms("typo", 0.5), std::out_of_range);
  EXPECT_EQ(snap.histogram("typo"), nullptr);
}

TEST(Histogram, PercentilesInterpolateWithinBucketResolution) {
  MetricsRegistry registry;
  Histogram h;
  const int owner = 0;
  registry.register_histogram("lat", &owner, h);
  for (int i = 1; i <= 1000; ++i) h.observe_ms(static_cast<double>(i) * 0.01);  // 0.01..10 ms
  const MetricsSnapshot snap = registry.snapshot();
  const MetricsSnapshot::HistogramView* view = snap.histogram("lat");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->count, 1000);
  EXPECT_DOUBLE_EQ(view->max_ms, 10.0);
  // Buckets grow ~15% per step: the estimate must land within one
  // bucket (+-20%) of the true quantile.
  EXPECT_NEAR(snap.percentile_ms("lat", 0.50), 5.0, 1.0);
  EXPECT_NEAR(snap.percentile_ms("lat", 0.99), 9.9, 2.0);
  // The top of the distribution is capped by the exact max.
  EXPECT_LE(snap.percentile_ms("lat", 1.0), 10.0);
}

TEST(MetricsRegistry, CallbackGaugeFreezesOnDetach) {
  MetricsRegistry registry;
  int live_value = 42;
  const int owner = 0;
  registry.register_callback("cb", &owner, [&live_value] {
    return static_cast<double>(live_value);
  });
  EXPECT_DOUBLE_EQ(registry.snapshot().value("cb"), 42.0);
  live_value = 43;
  registry.detach(&owner);  // evaluates once more and freezes
  live_value = 99;          // must never be read again
  EXPECT_DOUBLE_EQ(registry.snapshot().value("cb"), 43.0);
}

// ---------------------------------------------------------------- journal

TEST(EventJournal, BoundedRingDropsOldestAndCountsDrops) {
  EventJournal journal(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) journal.log("k" + std::to_string(i), "d");
  EXPECT_EQ(journal.dropped(), 2);
  const std::vector<JournalEvent> events = journal.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().kind, "k2");  // k0, k1 evicted
  EXPECT_EQ(events.back().kind, "k5");
  EXPECT_EQ(journal.drain().size(), 4u);
  EXPECT_TRUE(journal.events().empty());
}

/// The value of ` key=<number>` in a journal detail, or NaN when absent.
double detail_field(const std::string& detail, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = (" " + detail).find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::stod(detail.substr(at + needle.size() - 1));
}

TEST(EventJournal, FoldEventCarriesCutBuildRebaseTimes) {
  Telemetry telemetry;
  StreamingConfig config;
  config.telemetry = &telemetry;
  StreamingGraph graph(community(), config);

  Xoshiro256 rng(7);
  const auto n = static_cast<std::uint64_t>(graph.num_vertices());
  for (int i = 0; i < 256; ++i) {
    graph.add_edge(static_cast<VertexId>(rng.bounded(n)), static_cast<VertexId>(rng.bounded(n)));
  }
  (void)graph.publish();
  ASSERT_TRUE(graph.compact());

  // The fold's one event splits its time into the three phases; the
  // publish event carries its own duration.
  int folds = 0, publishes = 0;
  for (const JournalEvent& event : telemetry.journal().events()) {
    if (event.kind == "fold") {
      ++folds;
      for (const char* phase : {"cut_ms", "build_ms", "rebase_ms"})
        EXPECT_GE(detail_field(event.detail, phase), 0.0) << phase << " in " << event.detail;
    }
    if (event.kind == "publish") {
      ++publishes;
      EXPECT_GE(detail_field(event.detail, "ms"), 0.0) << event.detail;
    }
  }
  EXPECT_EQ(folds, 1);
  EXPECT_GE(publishes, 1);
  EXPECT_DOUBLE_EQ(telemetry.registry().snapshot().value("stream.compactions"), 1.0);
}

// --------------------------------------------------------------- exporter

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TelemetryExporter, EmitsOneJsonObjectPerLine) {
  const std::string path = "obs_exporter_test.jsonl";
  Histogram latency;  // declared first: outlives the telemetry that borrows it
  Telemetry telemetry;
  telemetry.registry().register_callback("serving.requests_completed", &latency,
                                         constant(5.0));
  telemetry.registry().register_histogram("serving.latency_ms", &latency, latency);
  latency.observe_ms(2.0);
  telemetry.journal().log("publish", "version=1 overlay_ops=3");
  {
    TelemetryExporter exporter(telemetry, {path, /*interval_ms=*/0});
    exporter.flush("tick");
  }  // destructor appends the "final" snapshot
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 3u);  // event + tick snapshot + final snapshot
  int snapshots = 0, events = 0;
  for (const std::string& line : lines) {
    // CI re-parses with json.loads; here we hold the line discipline.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":"), std::string::npos);
    if (line.find("\"type\":\"snapshot\"") != std::string::npos) {
      ++snapshots;
      EXPECT_NE(line.find("\"metrics\":"), std::string::npos);
      EXPECT_NE(line.find("serving.requests_completed"), std::string::npos);
      EXPECT_NE(line.find("\"journal.dropped_events\""), std::string::npos);
    }
    if (line.find("\"type\":\"event\"") != std::string::npos) {
      ++events;
      EXPECT_NE(line.find("\"kind\":\"publish\""), std::string::npos);
    }
  }
  EXPECT_EQ(snapshots, 2);
  EXPECT_EQ(events, 1);
  std::remove(path.c_str());
}

TEST(TelemetryExporter, SnapshotDuringInFlightFoldIsConsistent) {
  const std::string path = "obs_exporter_midfold_test.jsonl";
  Telemetry telemetry;
  StreamingConfig config;
  config.telemetry = &telemetry;
  StreamingGraph graph(community(), config);

  Xoshiro256 rng(13);
  const auto n = static_cast<std::uint64_t>(graph.num_vertices());
  for (int i = 0; i < 256; ++i) {
    graph.add_edge(static_cast<VertexId>(rng.bounded(n)), static_cast<VertexId>(rng.bounded(n)));
  }
  (void)graph.publish();

  std::mutex mutex;
  std::condition_variable cv;
  bool parked = false, release = false;
  graph.set_fold_hook([&] {
    std::unique_lock lock(mutex);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  std::thread folder([&graph] { EXPECT_TRUE(graph.compact()); });
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return parked; });
  }

  // The fold is parked off-lock between BUILD and REBASE.  A snapshot
  // taken now must not block and must see no fold landed yet.
  {
    TelemetryExporter exporter(telemetry, {path, /*interval_ms=*/0});
    exporter.flush("mid_fold");
  }
  const MetricsSnapshot snap = telemetry.registry().snapshot();
  EXPECT_TRUE(snap.has("stream.overlay_edges"));  // callback gauges still live
  EXPECT_DOUBLE_EQ(snap.value("stream.compactions"), 0.0);  // fold not yet landed
  // The flush drained the journal; none of its events is the fold's.
  for (const std::string& line : read_lines(path))
    EXPECT_EQ(line.find("\"kind\":\"fold\""), std::string::npos) << line;

  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  folder.join();
  graph.set_fold_hook(nullptr);
  EXPECT_DOUBLE_EQ(telemetry.registry().snapshot().value("stream.compactions"), 1.0);
  int folds = 0;
  for (const JournalEvent& event : telemetry.journal().events())
    if (event.kind == "fold") ++folds;
  EXPECT_EQ(folds, 1);  // journaled once the rebase lands

  for (const std::string& line : read_lines(path)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------ count once

/// The scalars a flat HyScale::stream session with a device cache, a
/// publisher, a compactor and a TTL sweeper exports after an
/// UpdateGenerator run, in registration order: the order each component
/// registered them in before the counts moved into the components.
const std::vector<std::string> kFlatSessionScalars = {
    "journal.dropped_events",
    "stream.ingested_edges", "stream.duplicate_edges", "stream.removed_edges",
    "stream.rejected_removals", "stream.added_vertices", "stream.removed_vertices",
    "stream.recycled_vertices", "stream.feature_updates", "stream.publishes",
    "stream.compactions", "stream.annihilations", "stream.expired_vertices",
    "stream.cache_reranks", "stream.overlay_edges", "stream.tombstones",
    "stream.base_edges", "stream.dead_vertices", "stream.num_vertices",
    "stream.version_id", "stream.annihilated_ops", "stream.recyclable_vertices",
    "featstore.rows", "featstore.released_rows",
    "serving.requests_completed", "serving.requests_rejected", "serving.batches",
    "serving.seeds", "serving.batch_requests_total", "serving.cache_hits",
    "serving.cache_misses", "serving.cache_device_bytes", "serving.cache_host_bytes",
    "serving.min_batch_requests", "serving.max_batch_requests", "serving.queue_depth",
    "serving.queue_depth_peak", "serving.last_served_version", "model.epoch",
    "cache.invalidations", "cache.evictions", "cache.reranks", "cache.readmitted_rows",
    "cache.rerank_evicted_rows",
    "compactor.folds", "compactor.annihilation_passes", "compactor.refused_folds",
    "publisher.publishes", "publisher.breaches", "publisher.worst_staleness_ms",
    "publisher.worst_publish_cost_ms",
    "expiry.sweeps", "expiry.retired",
    "ingest.operations", "ingest.wall_seconds", "ingest.edges_per_second"};

struct CountOnceSetup {
  ServingConfig serving;
  CompactionPolicy compaction;
  PublisherPolicy publisher;
  ExpiryPolicy expiry;
  UpdateGeneratorConfig updates;
};

CountOnceSetup count_once_setup(Telemetry& telemetry) {
  CountOnceSetup setup;
  setup.serving.fanouts = {4, 4};
  setup.serving.num_workers = 2;
  setup.serving.cache_capacity_rows = 24;
  setup.serving.cache_rerank_every_rows = 64;
  setup.serving.telemetry = &telemetry;
  setup.compaction.max_overlay_edges = 64;
  setup.publisher.staleness_budget = 2e-3;
  setup.expiry.ttl = 0.01;
  setup.expiry.sweep_interval = 2e-3;
  setup.updates.operations = 300;
  setup.updates.vertex_add_fraction = 0.25;
  setup.updates.edge_delete_fraction = 0.2;
  setup.updates.feature_update_fraction = 0.1;
  setup.updates.pacing = 1e-4;
  return setup;
}

/// Queries under churn, a model swap, TTL expiry (flat sessions run a
/// sweeper), then stops every background thread so no count moves while
/// the test reads them.
template <typename Churn>
void drive_and_quiesce(HyScale& system, ServingSession& session, Churn churn) {
  std::thread ingest(churn);
  for (int i = 0; i < 24; ++i) (void)session.infer({static_cast<VertexId>(i), 40});
  ingest.join();
  EXPECT_EQ(session.server->swap_model(ModelSnapshot(system.model())), 2u);
  for (int i = 0; i < 8; ++i) (void)session.infer({static_cast<VertexId>(i + 50)});
  if (session.sweeper) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (session.stream().stats().expired_vertices == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    session.sweeper->stop();
  }
  if (session.adopter) session.adopter->stop();
  for (auto& publisher : session.publishers) publisher->stop();
  for (auto& compactor : session.compactors) compactor->stop();
}

/// Every stream.*, compactor.*, publisher.*, expiry.*, sharded.* count
/// and serving.* scalar equals the getter or stats() field of the
/// component that owns it.
void expect_counts_agree(const MetricsSnapshot& snap, ServingSession& session) {
  const auto expect = [&snap](const std::string& name, auto value) {
    EXPECT_EQ(snap.value(name), static_cast<double>(value)) << name;
  };
  for (std::size_t s = 0; s < session.compactors.size(); ++s) {
    const bool sharded = session.sharded != nullptr;
    const std::string p = sharded ? "shard" + std::to_string(s) + "." : "";
    const StreamingGraph& graph =
        sharded ? session.shards().shard(static_cast<int>(s)) : session.stream();
    const StreamStats st = graph.stats();
    expect(p + "stream.ingested_edges", st.ingested_edges);
    expect(p + "stream.duplicate_edges", st.duplicate_edges);
    expect(p + "stream.removed_edges", st.removed_edges);
    expect(p + "stream.rejected_removals", st.rejected_removals);
    expect(p + "stream.added_vertices", st.added_vertices);
    expect(p + "stream.removed_vertices", st.removed_vertices);
    expect(p + "stream.recycled_vertices", st.recycled_vertices);
    expect(p + "stream.feature_updates", st.feature_updates);
    expect(p + "stream.publishes", st.publishes);
    expect(p + "stream.compactions", st.compactions);
    expect(p + "stream.annihilations", st.annihilations);
    expect(p + "stream.expired_vertices", st.expired_vertices);
    expect(p + "stream.cache_reranks", st.cache_reranks);
    expect(p + "stream.overlay_edges", st.overlay_edges);
    expect(p + "stream.tombstones", st.tombstones);
    expect(p + "stream.base_edges", st.base_edges);
    expect(p + "stream.dead_vertices", st.dead_vertices);
    expect(p + "stream.num_vertices", graph.num_vertices());
    expect(p + "stream.version_id", st.version_id);
    expect(p + "stream.annihilated_ops", st.annihilated_ops);
    expect(p + "stream.recyclable_vertices", graph.recyclable_vertices());

    const Compactor& compactor = *session.compactors[s];
    expect(p + "compactor.folds", compactor.compactions());
    expect(p + "compactor.annihilation_passes", compactor.annihilation_passes());
    expect(p + "compactor.refused_folds", compactor.refused_folds());

    const Publisher& publisher = *session.publishers[s];
    expect(p + "publisher.publishes", publisher.publishes());
    expect(p + "publisher.breaches", publisher.breaches());
    expect(p + "publisher.worst_staleness_ms", publisher.worst_staleness() * 1e3);
    expect(p + "publisher.worst_publish_cost_ms", publisher.worst_publish_cost() * 1e3);
  }
  if (session.sharded) {
    const ShardedStats st = session.shards().stats();
    expect("sharded.cut_adoptions", st.cut_adoptions);
    expect("sharded.ingested_edges", st.ingested_edges);
    expect("sharded.duplicate_edges", st.duplicate_edges);
    expect("sharded.removed_edges", st.removed_edges);
    expect("sharded.rejected_removals", st.rejected_removals);
    expect("sharded.added_vertices", st.added_vertices);
    expect("sharded.removed_vertices", st.removed_vertices);
    expect("sharded.feature_updates", st.feature_updates);
  } else {
    expect("expiry.sweeps", session.sweeper->sweeps());
    expect("expiry.retired", session.sweeper->retired());
  }

  const InferenceServer& server = *session.server;
  const ServingSnapshot sv = server.stats();
  expect("serving.requests_completed", sv.completed_requests);
  expect("serving.requests_rejected", sv.rejected_requests);
  expect("serving.batches", sv.completed_batches);
  expect("serving.seeds", sv.total_seeds);
  expect("serving.batch_requests_total", sv.batch_requests_total);
  expect("serving.cache_hits", sv.cache_hits);
  expect("serving.cache_misses", sv.cache_misses);
  expect("serving.cache_device_bytes", sv.device_bytes);
  expect("serving.cache_host_bytes", sv.host_bytes);
  expect("serving.min_batch_requests", sv.min_batch_requests);
  expect("serving.max_batch_requests", sv.max_batch_requests);
  expect("serving.queue_depth", server.batcher().depth());
  expect("serving.queue_depth_peak", server.batcher().peak_depth());
  expect("serving.last_served_version", server.last_served_version());
  expect("model.epoch", server.model_epoch());

  // The session did the work each count describes.  Every re-rank of
  // the flat session's cache is its graph's (fold or server cadence).
  if (session.sharded == nullptr) {
    const std::int64_t reranks = session.stream().stats().cache_reranks;
    EXPECT_GT(reranks, 0);
    EXPECT_EQ(reranks, server.cache()->reranks());
    EXPECT_GT(session.sweeper->retired(), 0);
  }
  EXPECT_EQ(sv.completed_requests, 32);
  EXPECT_GT(sv.cache_hits, 0);

  // Every exported histogram is its owner's one record of the latency.
  const auto view = [&snap](const std::string& name) {
    const HistogramView* found = snap.histogram(name);
    EXPECT_NE(found, nullptr) << name;
    return found != nullptr ? *found : HistogramView{};
  };
  EXPECT_EQ(view("serving.latency_ms").count, sv.completed_requests);
  EXPECT_EQ(view("serving.latency_ms").max_ms / 1e3, sv.latency_max);
  EXPECT_EQ(view("serving.queue_wait_ms").count, sv.completed_requests);
  EXPECT_EQ(view("serving.queue_wait_ms").max_ms / 1e3, sv.queue_wait_max);
  for (std::size_t s = 0; s < session.compactors.size(); ++s) {
    const bool sharded = session.sharded != nullptr;
    const std::string p = sharded ? "shard" + std::to_string(s) + "." : "";
    const StreamingGraph& graph =
        sharded ? session.shards().shard(static_cast<int>(s)) : session.stream();
    EXPECT_EQ(view(p + "stream.publish_lag_ms").max_ms / 1e3, graph.stats().publish_lag_max);
    EXPECT_GT(view(p + "stream.publish_lag_ms").count, 0);
    EXPECT_EQ(view(p + "publisher.visible_staleness_ms").max_ms / 1e3,
              session.publishers[s]->worst_staleness());
  }
  EXPECT_EQ(server.model_epoch(), 2u);
  EXPECT_GT(server.last_served_version(), 0u);
}

/// Tears the session down and expects every component scalar to read
/// the value it had before: detach froze it.
void expect_frozen_after_teardown(Telemetry& telemetry, std::optional<ServingSession>& session) {
  const MetricsSnapshot live = telemetry.registry().snapshot();
  session.reset();
  const MetricsSnapshot frozen = telemetry.registry().snapshot();
  ASSERT_EQ(frozen.scalars().size(), live.scalars().size());
  for (const auto& [name, value] : live.scalars()) {
    if (name.rfind("journal.", 0) == 0) continue;  // the telemetry's own, still live
    EXPECT_EQ(frozen.value(name), value) << name;
  }
  ASSERT_EQ(frozen.histograms().size(), live.histograms().size());
  for (const HistogramView& view : live.histograms()) {
    const HistogramView* after = frozen.histogram(view.name);
    ASSERT_NE(after, nullptr) << view.name;
    EXPECT_EQ(after->buckets, view.buckets) << view.name;
    EXPECT_EQ(after->count, view.count) << view.name;
    EXPECT_EQ(after->sum_ms, view.sum_ms) << view.name;
    EXPECT_EQ(after->max_ms, view.max_ms) << view.name;
  }
}

/// A paced write feed through the sharded facade: vertex arrivals with
/// one attachment edge, feature refreshes, and edge inserts of which
/// every other one is retracted right away.
void sharded_write_feed(ShardedStreamingGraph& graph, int operations) {
  Xoshiro256 rng(23);
  const std::vector<float> row(static_cast<std::size_t>(graph.features().cols()), 0.5f);
  for (int i = 0; i < operations; ++i) {
    const auto n = static_cast<std::uint64_t>(graph.num_vertices());
    const auto u = static_cast<VertexId>(rng.bounded(n));
    const auto v = static_cast<VertexId>(rng.bounded(n));
    if (i % 4 == 0) {
      (void)graph.add_edge(graph.add_vertex(row), u);
    } else if (i % 4 == 3) {
      (void)graph.update_feature(u, row);
    } else if (u != v && graph.add_edge(u, v) && i % 4 == 2) {
      (void)graph.remove_edge(u, v);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

HybridTrainerConfig count_once_train_config() {
  HybridTrainerConfig config;
  config.fanouts = {4, 4};
  return config;
}

TEST(CountOnce, FlatSessionExportsEachComponentCount) {
  Telemetry telemetry;
  HyScale system(community(), cpu_fpga_platform(2), count_once_train_config());
  CountOnceSetup setup = count_once_setup(telemetry);
  StreamingConfig streaming;
  streaming.telemetry = &telemetry;
  std::optional<ServingSession> session = system.stream(
      setup.serving, streaming, setup.compaction, setup.publisher, setup.expiry);
  drive_and_quiesce(system, *session,
                    [&] { (void)UpdateGenerator(session->stream(), setup.updates).run(); });

  const MetricsSnapshot snap = telemetry.registry().snapshot();
  expect_counts_agree(snap, *session);
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.scalars()) names.push_back(name);
  EXPECT_EQ(names, kFlatSessionScalars);
  EXPECT_GT(snap.value("stream.ingested_edges"), 0.0);
  EXPECT_GT(snap.value("stream.expired_vertices"), 0.0);
  EXPECT_GT(snap.value("publisher.publishes"), 0.0);

  expect_frozen_after_teardown(telemetry, session);
}

TEST(CountOnce, ShardedSessionExportsEachComponentCount) {
  Telemetry telemetry;
  HyScale system(community(), cpu_fpga_platform(2), count_once_train_config());
  CountOnceSetup setup = count_once_setup(telemetry);
  ShardedConfig sharded;
  sharded.num_shards = 2;
  sharded.stream.telemetry = &telemetry;
  std::optional<ServingSession> session =
      system.stream_sharded(sharded, setup.serving, setup.compaction, setup.publisher);
  ASSERT_EQ(session->publishers.size(), 2u);
  drive_and_quiesce(system, *session, [&] { sharded_write_feed(session->shards(), 300); });

  const MetricsSnapshot snap = telemetry.registry().snapshot();
  expect_counts_agree(snap, *session);
  EXPECT_GT(snap.value("sharded.cut_adoptions"), 1.0);
  EXPECT_GT(snap.value("shard0.stream.ingested_edges"), 0.0);

  expect_frozen_after_teardown(telemetry, session);
}

}  // namespace
}  // namespace hyscale
