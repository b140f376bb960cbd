// Tests for the diagnosis plane: tail-exemplar retention and the
// exact per-request critical path the serving workers stamp into each
// exemplar, the liveness watchdog — both directions: it DETECTS an
// artificially parked compactor fold, and it stays silent across a
// healthy multi-second run with the default calibration; its exported
// stall count is its own, frozen on destruction — and the flight
// recorder: trip-driven dumps, rate limiting, teardown ordering, and
// a trip racing the recorder's destruction.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void wait_until(const std::function<bool()>& done, Seconds timeout = 5.0) {
  Timer t;
  while (!done() && t.elapsed() < timeout)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

// ----------------------------------------------------------- exemplar ring

RequestTrace trace_with_total(std::uint64_t id, std::int64_t total_ns) {
  RequestTrace trace;
  trace.request_id = id;
  trace.enqueue_ns = 0;
  trace.done_ns = total_ns;
  return trace;
}

TEST(ExemplarRing, RetainsSlowestAndRaisesThreshold) {
  ExemplarRing ring(/*capacity=*/3);
  EXPECT_EQ(ring.threshold_ns(), 0);
  // Fill: everything admits while there is room.
  EXPECT_TRUE(ring.offer(trace_with_total(1, 100)));
  EXPECT_TRUE(ring.offer(trace_with_total(2, 300)));
  EXPECT_TRUE(ring.offer(trace_with_total(3, 200)));
  // Full: threshold is the fastest retained total.
  EXPECT_EQ(ring.threshold_ns(), 100);
  // At-or-below threshold is rejected on the fast path.
  EXPECT_FALSE(ring.offer(trace_with_total(4, 100)));
  EXPECT_FALSE(ring.offer(trace_with_total(5, 50)));
  // Slower than the fastest retained: evicts it, threshold rises.
  EXPECT_TRUE(ring.offer(trace_with_total(6, 250)));
  EXPECT_EQ(ring.threshold_ns(), 200);

  const std::vector<RequestTrace> slowest = ring.slowest();
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].request_id, 2u);  // 300
  EXPECT_EQ(slowest[1].request_id, 6u);  // 250
  EXPECT_EQ(slowest[2].request_id, 3u);  // 200
  EXPECT_EQ(ring.offered(), 6);
  EXPECT_EQ(ring.admitted(), 4);
}

TEST(ExemplarRing, ServingWorkersFeedTheRing) {
  Telemetry telemetry;
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.fanouts = {5, 5};
  config.num_workers = 1;
  config.telemetry = &telemetry;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  // Fewer requests than the ring holds, so every one is admitted.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(server.infer({0, 17, 40}).request_id);
  ASSERT_LT(ids.size(), telemetry.exemplars().capacity());

  // The worker offers the exemplar after fulfilling the reply promise;
  // give the last offer a moment to land.
  wait_until([&] { return telemetry.exemplars().admitted() >= 6; });
  EXPECT_EQ(telemetry.exemplars().offered(), 6);
  const std::vector<RequestTrace> slowest = telemetry.exemplars().slowest();
  std::set<std::uint64_t> retained;
  for (const RequestTrace& trace : slowest) retained.insert(trace.request_id);
  EXPECT_EQ(retained, std::set<std::uint64_t>(ids.begin(), ids.end()));

  for (const RequestTrace& trace : slowest) {
    const std::uint64_t id = trace.request_id;
    EXPECT_TRUE(trace.complete()) << "request " << id << " is missing a stage";
    // The path is exact: queue ends at worker pickup, then the batch
    // stages tile forward in order on the same steady clock, and the
    // trace's total is precisely enqueue -> reply-done.
    EXPECT_EQ(trace.enqueue_ns, trace.queue.begin_ns);
    EXPECT_LE(trace.queue.begin_ns, trace.queue.end_ns);
    EXPECT_LE(trace.queue.end_ns, trace.sample.begin_ns);
    EXPECT_LE(trace.sample.begin_ns, trace.sample.end_ns);
    EXPECT_LE(trace.sample.end_ns, trace.gather.begin_ns);
    EXPECT_LE(trace.gather.begin_ns, trace.gather.end_ns);
    EXPECT_LE(trace.gather.end_ns, trace.forward.begin_ns);
    EXPECT_LE(trace.forward.begin_ns, trace.forward.end_ns);
    EXPECT_LE(trace.forward.end_ns, trace.reply.begin_ns);
    EXPECT_LE(trace.reply.begin_ns, trace.reply.end_ns);
    EXPECT_EQ(trace.done_ns, trace.reply.end_ns);
    EXPECT_EQ(trace.total_ns(), trace.reply.end_ns - trace.queue.begin_ns);
    EXPECT_GT(trace.total_ns(), 0);
    // Single in-flight request on one worker: the batch is exactly it.
    EXPECT_EQ(trace.batch_requests, 1);
    EXPECT_EQ(trace.batch_seeds, 3);
  }
}

// --------------------------------------------------------------- watchdog

TEST(Watchdog, DetectsParkedCompactorFoldAndJournalsRecovery) {
  Telemetry telemetry;
  StreamingConfig config;
  config.telemetry = &telemetry;
  StreamingGraph graph(community(), config);

  Xoshiro256 rng(29);
  const auto n = static_cast<std::uint64_t>(graph.num_vertices());
  for (int i = 0; i < 256; ++i) {
    graph.add_edge(static_cast<VertexId>(rng.bounded(n)), static_cast<VertexId>(rng.bounded(n)));
  }
  (void)graph.publish();

  // Park the next fold inside its off-lock BUILD phase: the compactor
  // thread is genuinely wedged — busy, not idle — which is exactly the
  // signature the watchdog must flag.
  std::mutex mutex;
  std::condition_variable cv;
  bool parked = false, release = false;
  graph.set_fold_hook([&] {
    std::unique_lock lock(mutex);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });

  CompactionPolicy compaction;
  compaction.max_overlay_edges = 64;  // 256 pending ops: triggers immediately
  compaction.poll_interval = 2e-3;
  Compactor compactor(graph, compaction);

  WatchdogConfig wcfg;
  wcfg.check_interval_ns = 5'000'000;  // sweep every 5 ms
  wcfg.min_stall_ns = 50'000'000;      // flag after 50 ms of busy silence
  Watchdog watchdog(telemetry, wcfg);

  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return parked; });
  }
  wait_until([&] { return watchdog.stalls() >= 1; });
  EXPECT_GE(watchdog.stalls(), 1);
  EXPECT_DOUBLE_EQ(telemetry.registry().snapshot().value("watchdog.stalls"),
                   static_cast<double>(watchdog.stalls()));

  bool journaled_stall = false;
  for (const JournalEvent& event : telemetry.journal().events()) {
    if (event.kind == "watchdog_stall" &&
        event.detail.find("stream.compactor") != std::string::npos) {
      journaled_stall = true;
    }
  }
  EXPECT_TRUE(journaled_stall) << "stall not journaled against stream.compactor";

  bool tripped = false;
  for (const TripRecord& trip : telemetry.trips()) {
    if (trip.reason == "watchdog_stall:stream.compactor") tripped = true;
  }
  EXPECT_TRUE(tripped) << "stall did not escalate through the trip channel";

  // Release the fold; the compactor beats again and the watchdog
  // journals the recovery.
  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  wait_until([&] {
    for (const JournalEvent& event : telemetry.journal().events()) {
      if (event.kind == "watchdog_recovered" &&
          event.detail.find("stream.compactor") != std::string::npos) {
        return true;
      }
    }
    return false;
  });
  compactor.stop();
  watchdog.stop();
  graph.set_fold_hook(nullptr);

  bool recovered = false;
  for (const JournalEvent& event : telemetry.journal().events()) {
    if (event.kind == "watchdog_recovered" &&
        event.detail.find("stream.compactor") != std::string::npos) {
      recovered = true;
    }
  }
  EXPECT_TRUE(recovered) << "recovery not journaled after the fold was released";
}

TEST(Watchdog, NoFalsePositivesOverHealthyMultiSecondRun) {
  // Default calibration (250 ms floor, 8x hint) against a live mixed
  // workload: serving workers cycling busy/idle, a compactor and
  // publisher and sweeper on their normal cadences.  A healthy run
  // must produce ZERO stall episodes — this is the false-positive
  // bound the watchdog's thresholds are calibrated for.
  Telemetry telemetry;
  StreamingConfig stream_config;
  stream_config.telemetry = &telemetry;
  StreamingGraph graph(community(), stream_config);

  CompactionPolicy compaction;
  compaction.max_overlay_edges = 512;
  Compactor compactor(graph, compaction);
  PublisherPolicy publisher_policy;
  publisher_policy.staleness_budget = 5e-3;
  Publisher publisher(graph, publisher_policy);
  ExpiryPolicy expiry;
  expiry.ttl = 1.0;
  expiry.sweep_interval = 5e-3;
  ExpirySweeper sweeper(graph, expiry);

  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig serving;
  serving.fanouts = {5, 5};
  serving.num_workers = 2;
  serving.telemetry = &telemetry;
  auto backend = make_static_backend(community(), serving);
  InferenceServer server(*backend, snapshot, serving);

  Watchdog watchdog(telemetry);  // default config

  Xoshiro256 rng(31);
  const auto n = static_cast<std::uint64_t>(graph.num_vertices());
  Timer wall;
  while (wall.elapsed() < 2.5) {
    for (int i = 0; i < 8; ++i) {
      graph.add_edge(static_cast<VertexId>(rng.bounded(n)),
                     static_cast<VertexId>(rng.bounded(n)));
    }
    (void)server.infer({0, 17, 40});
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EXPECT_GT(watchdog.sweeps(), 50) << "watchdog barely ran; bound not exercised";
  EXPECT_EQ(watchdog.stalls(), 0) << "false positive on a healthy run";
  // The publisher may legitimately trip slo_breach under test-machine
  // load; only watchdog escalations count as false positives here.
  for (const TripRecord& trip : telemetry.trips()) {
    EXPECT_EQ(trip.reason.rfind("watchdog_stall", 0), std::string::npos)
        << "watchdog trip on a healthy run: " << trip.reason;
  }
  // Many hearts actually participated: 2 workers + compactor +
  // publisher + sweeper.
  EXPECT_GE(telemetry.heartbeats().size(), 5u);
}

TEST(Watchdog, ExportsItsOwnStallCountAndFreezesIt) {
  // watchdog.stalls is the watchdog's own count: present at 0 from
  // construction, equal to stalls() after a stall, and frozen once the
  // watchdog is gone.
  Telemetry telemetry;
  Heartbeat& heart = telemetry.heartbeats().register_thread("test.wedged", 1'000'000);
  std::int64_t stalls = 0;
  {
    WatchdogConfig wcfg;
    wcfg.check_interval_ns = 2'000'000;  // sweep every 2 ms
    wcfg.min_stall_ns = 10'000'000;      // flag after 10 ms of busy silence
    Watchdog watchdog(telemetry, wcfg);
    EXPECT_DOUBLE_EQ(telemetry.registry().snapshot().value("watchdog.stalls"), 0.0);
    heart.beat();  // busy from here on, and never beats again
    wait_until([&] { return watchdog.stalls() >= 1; });
    watchdog.stop();
    stalls = watchdog.stalls();
    ASSERT_GE(stalls, 1);
    EXPECT_DOUBLE_EQ(telemetry.registry().snapshot().value("watchdog.stalls"),
                     static_cast<double>(stalls));
  }
  EXPECT_DOUBLE_EQ(telemetry.registry().snapshot().value("watchdog.stalls"),
                   static_cast<double>(stalls));
}

TEST(Watchdog, StoppedExpirySweeperDoesNotReadAsAStall) {
  // A stopped loop must retire its heart: a heart left busy with a
  // stale beat is exactly what a wedged thread looks like, so a
  // watchdog that outlives the sweeper would raise a false stall.
  Telemetry telemetry;
  StreamingConfig config;
  config.telemetry = &telemetry;
  StreamingGraph graph(community(), config);
  ExpiryPolicy expiry;
  expiry.ttl = 1.0;
  expiry.sweep_interval = 1e-3;
  ExpirySweeper sweeper(graph, expiry);
  wait_until([&] { return sweeper.sweeps() >= 2; });
  sweeper.stop();

  WatchdogConfig wcfg;
  wcfg.check_interval_ns = 5'000'000;  // sweep every 5 ms
  wcfg.min_stall_ns = 20'000'000;      // flag after 20 ms of busy silence
  Watchdog watchdog(telemetry, wcfg);
  wait_until([&] { return watchdog.sweeps() >= 20; });  // ~100 ms, 5x the floor
  watchdog.stop();

  EXPECT_GE(watchdog.sweeps(), 20);
  EXPECT_EQ(watchdog.stalls(), 0);
  for (const TripRecord& trip : telemetry.trips())
    EXPECT_NE(trip.reason, "watchdog_stall:stream.expiry_sweeper");
  const auto views = telemetry.heartbeats().views();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views.front().name, "stream.expiry_sweeper");
  EXPECT_TRUE(views.front().retired);
}

TEST(Watchdog, EveryLifecycleHeartIsRetiredAfterStop) {
  const std::string jsonl_path = "diagnosis_retire_metrics.jsonl";
  Telemetry flat_telemetry;
  Telemetry sharded_telemetry;
  StreamingConfig flat_config;
  flat_config.telemetry = &flat_telemetry;
  StreamingGraph graph(community(), flat_config);
  ShardedConfig sharded_config;
  sharded_config.num_shards = 2;
  sharded_config.stream.telemetry = &sharded_telemetry;
  ShardedStreamingGraph sharded(community(), sharded_config);

  CompactionPolicy compaction;
  compaction.poll_interval = 1e-3;
  ExpiryPolicy expiry;
  expiry.ttl = 1.0;
  expiry.sweep_interval = 1e-3;
  Compactor compactor(graph, compaction);
  Publisher publisher(graph);
  ExpirySweeper sweeper(graph, expiry);
  CutAdopter adopter(sharded);
  TelemetryExporter exporter(flat_telemetry, {jsonl_path, /*interval_ms=*/2});

  const auto all_beating = [](const Telemetry& telemetry) {
    for (const auto& h : telemetry.heartbeats().views())
      if (h.beats == 0) return false;
    return true;
  };
  wait_until([&] { return all_beating(flat_telemetry) && all_beating(sharded_telemetry); });

  compactor.stop();
  publisher.stop();
  sweeper.stop();
  adopter.stop();
  exporter.stop();
  std::set<std::string> names;
  for (const Telemetry* telemetry : {&flat_telemetry, &sharded_telemetry}) {
    for (const auto& h : telemetry->heartbeats().views()) {
      EXPECT_GT(h.beats, 0) << h.name;
      EXPECT_TRUE(h.retired) << h.name << " still reads live after stop()";
      names.insert(h.name);
    }
  }
  EXPECT_EQ(names, (std::set<std::string>{"stream.compactor", "stream.publisher",
                                          "stream.expiry_sweeper", "sharded.adopter",
                                          "obs.exporter"}));
  std::remove(jsonl_path.c_str());
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorder, TripDumpsRateLimitAndExplicitDumpDoesNot) {
  const std::string path = "diagnosis_flight_test.json";
  Histogram latency;  // declared first: outlives the telemetry that borrows it
  Telemetry telemetry;
  telemetry.registry().register_callback("serving.requests_completed", &latency,
                                         [] { return 3.0; });
  telemetry.registry().register_histogram("serving.latency_ms", &latency, latency);
  latency.observe_ms(2.5);
  telemetry.journal().log("publish", "version=1 overlay_ops=9");
  telemetry.heartbeats().register_thread("test.thread", 1'000'000).beat();
  (void)telemetry.exemplars().offer(trace_with_total(5, 2'000'000));

  FlightRecorderConfig config;
  config.path = path;
  config.min_dump_gap_ns = 3'600'000'000'000;  // 1 h: second trip must suppress
  config.dump_on_teardown = false;
  {
    FlightRecorder recorder(telemetry, config);
    telemetry.trip("slo_breach");
    EXPECT_EQ(recorder.dumps(), 1);
    telemetry.trip("slo_breach");  // inside the gap
    EXPECT_EQ(recorder.dumps(), 1);
    EXPECT_EQ(recorder.suppressed(), 1);
    // Explicit dumps bypass the limiter.
    EXPECT_TRUE(recorder.dump("operator_request"));
    EXPECT_EQ(recorder.dumps(), 2);
  }

  const std::string body = read_file(path);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body[body.size() - 2], '}');  // trailing newline after the object
  for (const char* key :
       {"\"type\":\"flight_record\"", "\"reason\":\"operator_request\"",
        "\"trips\":", "\"slo_breach\"", "\"metrics\":", "\"journal\":",
        "\"heartbeats\":", "\"test.thread\"", "\"exemplars\":",
        "\"request_id\":5", "\"journal.dropped_events\""}) {
    EXPECT_NE(body.find(key), std::string::npos) << "missing " << key;
  }
  std::remove(path.c_str());
}

TEST(FlightRecorder, TeardownDumpCompletesMidExporterInterval) {
  // The exporter thread is parked mid-interval (long cadence) when the
  // recorder tears down: the dump must complete with the exporter
  // still alive, and the exporter's own final snapshot must still land
  // afterwards — teardown order recorder -> exporter -> telemetry.
  const std::string flight_path = "diagnosis_teardown_flight.json";
  const std::string jsonl_path = "diagnosis_teardown_metrics.jsonl";
  Telemetry telemetry;
  telemetry.registry().register_callback("serving.requests_completed", &telemetry,
                                         [] { return 1.0; });
  {
    TelemetryExporter exporter(telemetry, {jsonl_path, /*interval_ms=*/60'000});
    {
      FlightRecorderConfig config;
      config.path = flight_path;
      FlightRecorder recorder(telemetry, config);
      telemetry.journal().log("fold", "version=2");
    }  // teardown dump, exporter mid-wait
    const std::string body = read_file(flight_path);
    ASSERT_FALSE(body.empty());
    EXPECT_NE(body.find("\"reason\":\"teardown\""), std::string::npos);
    // The exporter heart is registered and idle in its interval wait.
    EXPECT_NE(body.find("\"obs.exporter\""), std::string::npos);
  }  // exporter stops: final snapshot
  bool final_snapshot = false;
  std::ifstream in(jsonl_path);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"reason\":\"final\"") != std::string::npos) final_snapshot = true;
  }
  EXPECT_TRUE(final_snapshot);
  std::remove(flight_path.c_str());
  std::remove(jsonl_path.c_str());
}

TEST(FlightRecorder, TripsRacingDestructionAreSafe) {
  // Hammer the trip channel from another thread while recorders come
  // and go: the handler clears under the trip mutex, so a trip either
  // lands in a live recorder or records history-only — never a
  // use-after-free.  (This test's teeth are under TSan in CI.)
  const std::string path = "diagnosis_race_flight.json";
  Telemetry telemetry;
  std::atomic<bool> stop{false};
  std::thread tripper([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      telemetry.trip("race_trip_" + std::to_string(i++));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int round = 0; round < 20; ++round) {
    FlightRecorderConfig config;
    config.path = path;
    config.min_dump_gap_ns = 1;  // dump eagerly: maximize handler activity
    config.dump_on_teardown = false;
    FlightRecorder recorder(telemetry, config);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  tripper.join();
  // Bounded history survived the storm.
  EXPECT_LE(telemetry.trips().size(), 64u);
  EXPECT_FALSE(telemetry.trips().empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyscale
