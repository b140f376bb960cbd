// Serving performance record: closed-loop load sessions against the
// online inference server at a few operating points (worker count x
// cache capacity), emitting BENCH_serving.json so later PRs have a
// latency/QPS/hit-rate trajectory to beat.
//
// Every reported number is read back from the telemetry plane: each
// point binds a Telemetry to the server and load generator, and the
// JSON record is built from one MetricsRegistry snapshot — the bench
// exercises the same instruments operators would export, instead of
// hand-copying private stats structs.  Latency percentiles therefore
// come from the shared fixed-bucket histogram (~15% bucket growth),
// not the exact reservoir — comparable within a record, and across
// records only at histogram resolution.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/hyscale.hpp"

using namespace hyscale;

namespace {

struct OperatingPoint {
  std::string name;
  int workers;
  std::int64_t cache_rows;
  int clients;
};

struct PointResult {
  OperatingPoint point;
  MetricsSnapshot snap;
};

double value_or(const MetricsSnapshot& snap, const std::string& name) {
  return snap.has(name) ? snap.value(name) : 0.0;
}

std::int64_t count_or(const MetricsSnapshot& snap, const std::string& name) {
  return static_cast<std::int64_t>(value_or(snap, name));
}

double safe_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double hit_rate(const MetricsSnapshot& snap) {
  const double hits = value_or(snap, "serving.cache_hits");
  const double misses = value_or(snap, "serving.cache_misses");
  return safe_ratio(hits, hits + misses);
}

double mean_batch(const MetricsSnapshot& snap) {
  return safe_ratio(value_or(snap, "serving.batch_requests_total"),
                    value_or(snap, "serving.batches"));
}

}  // namespace

int main() {
  bench::header("BENCH serving", "online inference: dynamic batching + cached gathers");

  MaterializeOptions materialize;
  materialize.target_vertices = 1 << 11;
  const Dataset dataset = materialize_dataset("ogbn-products", materialize);

  HybridTrainerConfig train_config;
  train_config.fanouts = {5, 5};
  train_config.real_batch_total = 128;
  train_config.real_iterations_cap = 2;
  HybridTrainer trainer(dataset, cpu_fpga_platform(2), train_config);
  trainer.train_epoch();
  const ModelSnapshot model(trainer.model());

  const std::vector<OperatingPoint> points = {
      {"1w_nocache", 1, 0, 4},
      {"2w_cache", 2, 512, 8},
      {"4w_cache", 4, 1024, 16},
  };

  bench::row({"config", "qps", "p50 ms", "p95 ms", "p99 ms", "batch", "hit rate", "rejected"},
             {12, 10, 10, 10, 10, 8, 10, 10});

  std::vector<PointResult> results;
  for (const OperatingPoint& point : points) {
    Telemetry telemetry;  // declared before the server so detach precedes teardown

    ServingConfig serving;
    serving.fanouts = {10, 5};
    serving.num_workers = point.workers;
    serving.cache_capacity_rows = point.cache_rows;
    serving.batch.max_batch_requests = 16;
    serving.batch.max_wait = 2e-3;
    serving.seed = 7;
    serving.telemetry = &telemetry;
    auto backend = make_static_backend(dataset, serving);
    InferenceServer server(*backend, model, serving);

    LoadGeneratorConfig load;
    load.num_clients = point.clients;
    load.requests_per_client = 64;
    load.seeds_per_request = 4;
    load.seed = 21;
    load.telemetry = &telemetry;
    LoadGenerator generator(server, dataset, load);
    (void)generator.run();

    MetricsSnapshot snap = telemetry.registry().snapshot();
    bench::row({point.name, format_double(value_or(snap, "load.qps"), 1),
                format_double(snap.percentile_ms("serving.latency_ms", 0.50), 3),
                format_double(snap.percentile_ms("serving.latency_ms", 0.95), 3),
                format_double(snap.percentile_ms("serving.latency_ms", 0.99), 3),
                format_double(mean_batch(snap), 2), format_double(hit_rate(snap), 3),
                std::to_string(count_or(snap, "load.rejected_submits"))},
               {12, 10, 10, 10, 10, 8, 10, 10});
    results.push_back({point, std::move(snap)});
  }

  bench::JsonWriter json;
  json.begin_object();
  json.field("bench", "serving");
  json.field("dataset", dataset.info.name);
  json.field("materialized_vertices", static_cast<std::int64_t>(dataset.num_vertices()));
  json.field("fanouts", "10,5");
  json.field("source", "metrics_registry_snapshot");
  json.key("points");
  json.begin_array();
  for (const PointResult& r : results) {
    const MetricsSnapshot& snap = r.snap;
    json.begin_object();
    json.field("name", r.point.name);
    json.field("workers", r.point.workers);
    json.field("cache_rows", r.point.cache_rows);
    json.field("clients", r.point.clients);
    json.field("completed_requests", count_or(snap, "load.completed_requests"));
    json.field("rejected_submits", count_or(snap, "load.rejected_submits"));
    json.field("qps", value_or(snap, "load.qps"));
    json.field("p50_ms", snap.percentile_ms("serving.latency_ms", 0.50));
    json.field("p95_ms", snap.percentile_ms("serving.latency_ms", 0.95));
    json.field("p99_ms", snap.percentile_ms("serving.latency_ms", 0.99));
    json.field("mean_batch_requests", mean_batch(snap));
    json.field("cache_hit_rate", hit_rate(snap));
    json.end_object();
  }
  json.end_array();
  const MetricsSnapshot& headline = results.back().snap;
  json.key("headline");
  json.begin_object();
  json.field("qps", value_or(headline, "load.qps"));
  json.field("p50_ms", headline.percentile_ms("serving.latency_ms", 0.50));
  json.field("p99_ms", headline.percentile_ms("serving.latency_ms", 0.99));
  json.field("cache_hit_rate", hit_rate(headline));
  json.end_object();
  json.end_object();

  const std::string path = "BENCH_serving.json";
  json.write(path);
  std::printf("\nperf record written to %s\n", path.c_str());
  return 0;
}
