// hyscale_cli — command-line driver for the library, the binary a
// downstream user actually runs.
//
// Training (default mode):
//   $ ./example_hyscale_cli --dataset ogbn-products --model sage \
//        --platform fpga --accels 4 --epochs 3 --fanouts 25,10 \
//        [--no-hybrid] [--no-drm] [--no-tfp] [--int8] [--trace out.json]
//
// Online inference serving (train briefly or load a checkpoint, then
// run a closed-loop load-generator session against the server):
//   $ ./example_hyscale_cli serve --dataset ogbn-products --workers 4 \
//        --clients 8 --requests 64 --fanouts 10,5 --cache-rows 512 \
//        [--checkpoint ckpt.bin] [--save-checkpoint ckpt.bin]
//
// Live serving over an evolving graph (concurrent update stream with a
// configurable insert/delete/update mix + query load against the
// streaming subsystem; background annihilate-then-fold compaction, an
// SLO publisher bounding staleness, and optional TTL eviction):
//   $ ./example_hyscale_cli stream --dataset ogbn-products --workers 4 \
//        --clients 8 --requests 64 --updates 512 \
//        [--delete-frac 0.3] [--vertex-delete-frac 0.05] \
//        [--delete-recent-frac 0.7] [--update-threads 2] \
//        [--compact-edges N] [--compact-ratio R] \
//        [--slo-ms 5] [--ttl-ms 50] [--sweep-ms 10] [--publish-every N]
//
// Each mode parses its flags from one table (stream's extends serve's)
// that writes straight into the library's config structs.  Every value
// is parsed whole: trailing junk, a negative count or an out-of-range
// value exits 2 before the dataset is built.
//
// Prints per-epoch reports (train), p50/p99 latency, QPS, batch-size
// and cache statistics (serve), plus ingest rate, publish lag and
// queue-wait/compute split (stream).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/strutil.hpp"
#include "core/hyscale.hpp"

using namespace hyscale;

namespace {

// ------------------------------------------------------------ flag table

/// One flag: its name and what its value does.  Switches take no value
/// (`set` gets nullptr); a setter prints why and returns false to
/// reject a value.
struct Flag {
  std::string name;
  bool takes_value;
  std::function<bool(const char* value)> set;
};
using FlagTable = std::vector<Flag>;

bool reject(const std::string& flag, const char* value, const std::string& want) {
  std::fprintf(stderr, "%s: expected %s (got '%s')\n", flag.c_str(), want.c_str(), value);
  return false;
}

/// Parses the whole token: an empty token, trailing junk, a sign on an
/// unsigned type, or a value out of T's range fails.
template <class T>
bool parse_whole(const char* text, T& out) {
  const std::string_view s(text);
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if constexpr (std::is_floating_point_v<T>) {
    if (ec == std::errc() && !std::isfinite(out)) return false;
  }
  return !s.empty() && ec == std::errc() && end == s.data() + s.size();
}

/// A switch: stores `value` in `dst`.
template <class T>
Flag set_to(std::string name, T& dst, T value) {
  return {std::move(name), false, [&dst, value](const char*) {
            dst = value;
            return true;
          }};
}

Flag text(std::string name, std::string& dst) {
  return {std::move(name), true, [&dst](const char* v) {
            dst = v;
            return true;
          }};
}

/// An integer at least `min` (counts default to non-negative).
template <class T>
Flag count(std::string name, T& dst, T min = 0) {
  return {name, true, [name, &dst, min](const char* v) {
            T parsed{};
            if (!parse_whole(v, parsed) || parsed < min)
              return reject(name, v, "an integer >= " + std::to_string(min));
            dst = parsed;
            return true;
          }};
}

/// A finite real, stored in `dst` multiplied by `scale` (1e-3 turns a
/// millisecond flag into library Seconds).
Flag real(std::string name, double& dst, double scale = 1.0) {
  return {name, true, [name, &dst, scale](const char* v) {
            double parsed = 0.0;
            if (!parse_whole(v, parsed)) return reject(name, v, "a number");
            dst = parsed * scale;
            return true;
          }};
}

/// One of a fixed set of spellings.
template <class T>
Flag choice(std::string name, T& dst, std::vector<std::pair<std::string, T>> options) {
  return {name, true, [name, &dst, options = std::move(options)](const char* v) {
            std::string names;
            for (const auto& [spelling, value] : options) {
              if (spelling == v) {
                dst = value;
                return true;
              }
              names += (names.empty() ? "" : "|") + spelling;
            }
            return reject(name, v, names);
          }};
}

/// Comma-separated positive fanouts, input layer first.
Flag fanouts(std::vector<int>& dst) {
  return {"--fanouts", true, [&dst](const char* v) {
            std::vector<int> parsed;
            for (const std::string& token : split(v, ',')) {
              int f = 0;
              if (!parse_whole(token.c_str(), f) || f <= 0)
                return reject("--fanouts", v, "positive integers a,b,...");
              parsed.push_back(f);
            }
            if (parsed.empty()) return reject("--fanouts", v, "positive integers a,b,...");
            dst = std::move(parsed);
            return true;
          }};
}

/// Probes an output path at parse time so a typo'd directory fails
/// before minutes of load generation, not after.  "-" means stderr.
Flag output_path(std::string name, std::string& dst) {
  return {name, true, [name, &dst](const char* v) {
            if (std::string(v) != "-") {
              std::FILE* f = std::fopen(v, "a");
              if (f == nullptr) {
                std::fprintf(stderr, "%s: cannot open '%s' for writing\n", name.c_str(), v);
                return false;
              }
              std::fclose(f);
            }
            dst = v;
            return true;
          }};
}

enum class Parsed { kOk, kHelp, kBad };

Parsed parse_flags(int argc, char** argv, int first, const FlagTable& table) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Parsed::kHelp;
    const auto flag = std::find_if(table.begin(), table.end(),
                                   [&](const Flag& f) { return f.name == arg; });
    if (flag == table.end()) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Parsed::kBad;
    }
    const char* value = nullptr;
    if (flag->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return Parsed::kBad;
      }
      value = argv[++i];
    }
    if (!flag->set(value)) return Parsed::kBad;
  }
  return Parsed::kOk;
}

/// Parses `flags(options)` from argv[first..], then runs the mode: 0
/// after --help, 2 on a bad flag (with the usage), 1 when the run
/// throws.
template <class Options>
int run_mode(int argc, char** argv, int first, FlagTable (*flags)(Options&),
             void (*usage)(const char*), int (*run)(const Options&)) {
  Options options;
  switch (parse_flags(argc, argv, first, flags(options))) {
    case Parsed::kHelp:
      usage(argv[0]);
      return 0;
    case Parsed::kBad:
      usage(argv[0]);
      return 2;
    case Parsed::kOk:
      break;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

/// Parses a model name, rejecting what parse_gnn_kind rejects.
Flag model(GnnKind& dst) {
  return {"--model", true, [&dst](const char* v) {
            try {
              dst = parse_gnn_kind(v);
              return true;
            } catch (const std::invalid_argument&) {
              return reject("--model", v, "gcn|sage|gat");
            }
          }};
}

std::optional<Dataset> load_dataset(const std::string& name, VertexId scale) {
  MaterializeOptions materialize;
  materialize.target_vertices = scale;
  try {
    return materialize_dataset(name, materialize);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "unknown dataset '%s'; known datasets:\n", name.c_str());
    for (const auto& info : paper_datasets()) std::fprintf(stderr, "  %s\n", info.name.c_str());
    return std::nullopt;
  }
}

// ------------------------------------------------------------ train mode

struct TrainOptions {
  std::string dataset = "ogbn-products";
  PlatformSpec (*platform)(int) = cpu_fpga_platform;
  int accels = 4;
  int epochs = 2;
  VertexId scale = 1 << 11;
  std::string trace_path;
  HybridTrainerConfig config;

  TrainOptions() { config.trajectory_cap = 0; }  // --trace keeps 256
};

void train_usage(const char* argv0) {
  std::printf(
      "usage: %s [--dataset NAME] [--model gcn|sage|gat] [--platform gpu|fpga]\n"
      "          [--accels K] [--epochs N] [--fanouts a,b,...] [--scale V]\n"
      "          [--no-hybrid] [--no-drm] [--no-tfp] [--int8] [--trace FILE]\n",
      argv0);
}

FlagTable train_flags(TrainOptions& o) {
  HybridTrainerConfig& c = o.config;
  return {
      text("--dataset", o.dataset),
      model(c.model_kind),
      choice("--platform", o.platform, {{"gpu", cpu_gpu_platform}, {"fpga", cpu_fpga_platform}}),
      count("--accels", o.accels, 1),
      count("--epochs", o.epochs),
      count<VertexId>("--scale", o.scale, 1),
      fanouts(c.fanouts),
      set_to("--no-hybrid", c.hybrid, false),
      set_to("--no-drm", c.drm, false),
      set_to("--no-tfp", c.pipeline, PipelineMode::kSinglePrefetch),
      set_to("--int8", c.transfer_precision, TransferPrecision::kInt8),
      {"--trace", true,
       [&o](const char* v) {
         o.trace_path = v;
         o.config.trajectory_cap = 256;
         return true;
       }},
  };
}

int run_train(const TrainOptions& options) {
  const std::optional<Dataset> dataset = load_dataset(options.dataset, options.scale);
  if (!dataset) return 2;
  const HybridTrainerConfig& config = options.config;
  const PlatformSpec platform = options.platform(options.accels);

  std::printf("dataset:  %s (paper scale: %llu vertices / %llu edges)\n",
              dataset->info.name.c_str(),
              static_cast<unsigned long long>(dataset->info.num_vertices),
              static_cast<unsigned long long>(dataset->info.num_edges));
  std::printf("platform: %s\n", platform.name.c_str());
  std::printf("model:    %s, fanouts", gnn_kind_name(config.model_kind));
  for (int f : config.fanouts) std::printf(" %d", f);
  std::printf(", hybrid=%d drm=%d tfp=%d wire=%s\n\n", config.hybrid, config.drm,
              config.pipeline == PipelineMode::kTwoStagePrefetch,
              transfer_precision_name(config.transfer_precision));

  HybridTrainer trainer(*dataset, platform, config);
  std::printf("initial mapping: %s\n", trainer.workload().to_string().c_str());
  std::printf("predicted epoch: %.3f s\n\n", trainer.predicted_epoch_time());

  EpochReport last;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    last = trainer.train_epoch();
    std::printf("epoch %2d: %8.3f s  %7.0f MTEPS  loss %.4f  acc %.3f\n", epoch,
                last.epoch_time, last.mteps, last.loss, last.train_accuracy);
  }
  std::printf("\nfinal workload: %s\n", last.final_workload.to_string().c_str());
  std::printf("mean stage times: %s\n", last.mean_times.to_string().c_str());

  if (!options.trace_path.empty()) {
    write_chrome_trace(last, config.pipeline, options.trace_path);
    std::printf("pipeline trace written to %s (open in chrome://tracing)\n",
                options.trace_path.c_str());
  }
  return 0;
}

// ------------------------------------------------------------ serve mode

struct ServeOptions {
  std::string dataset = "ogbn-products";
  VertexId scale = 1 << 11;
  int train_epochs = 1;
  std::string checkpoint;       ///< load instead of relying on training
  std::string save_checkpoint;  ///< write trained weights before serving
  std::uint64_t seed = 1;       ///< trainer and server; load and updates derive theirs
  GnnKind model_kind = GnnKind::kSage;
  ServingConfig serving;
  LoadGeneratorConfig load;
  std::string metrics_out;        ///< JSON-lines telemetry dump; "-" = stderr
  int metrics_interval_ms = 0;    ///< periodic exporter cadence; 0 = final dump only
  std::string flight_record_out;  ///< post-mortem JSON bundle; "-" = stderr

  ServeOptions() {
    serving.fanouts = {10, 5};  // empty via --full: exact inference
    serving.num_workers = 4;
    serving.cache_capacity_rows = 512;
    load.num_clients = 8;
  }

  bool telemetry_enabled() const {
    return !metrics_out.empty() || !flight_record_out.empty();
  }
};

void serve_usage(const char* argv0) {
  std::printf(
      "usage: %s serve [--dataset NAME] [--model gcn|sage|gat] [--scale V]\n"
      "          [--train-epochs N] [--checkpoint FILE] [--save-checkpoint FILE]\n"
      "          [--fanouts a,b,...|--full] [--workers K] [--cache-rows R]\n"
      "          [--precision fp32|int8] [--max-batch B] [--max-wait-ms MS] [--queue-cap Q]\n"
      "          [--clients C] [--requests N] [--seeds-per-request S] [--seed X]\n"
      "          [--metrics-out FILE|-] [--metrics-interval-ms MS]\n"
      "          [--flight-record-out FILE|-]\n"
      "\n"
      "telemetry: --metrics-out dumps registry snapshots + lifecycle events as\n"
      "JSON lines (one final snapshot, or every --metrics-interval-ms; '-' =\n"
      "stderr); --flight-record-out arms a liveness watchdog + flight\n"
      "recorder that dumps a post-mortem JSON bundle (metrics, journal tail,\n"
      "heartbeat ages, slowest-request traces) on a stall, an SLO breach, or\n"
      "teardown.\n",
      argv0);
}

FlagTable serve_flags(ServeOptions& o) {
  ServingConfig& s = o.serving;
  return {
      text("--dataset", o.dataset),
      model(o.model_kind),
      count<VertexId>("--scale", o.scale, 1),
      count("--train-epochs", o.train_epochs),
      text("--checkpoint", o.checkpoint),
      text("--save-checkpoint", o.save_checkpoint),
      fanouts(s.fanouts),
      set_to("--full", s.fanouts, std::vector<int>{}),
      count("--workers", s.num_workers, 1),
      count<std::int64_t>("--cache-rows", s.cache_capacity_rows),
      choice("--precision", s.transfer_precision,
             {{"fp32", TransferPrecision::kFp32}, {"int8", TransferPrecision::kInt8}}),
      count<std::int64_t>("--max-batch", s.batch.max_batch_requests, 1),
      real("--max-wait-ms", s.batch.max_wait, 1e-3),
      count<std::size_t>("--queue-cap", s.batch.queue_capacity, 1),
      count("--clients", o.load.num_clients, 1),
      count("--requests", o.load.requests_per_client, 1),
      count("--seeds-per-request", o.load.seeds_per_request, 1),
      count<std::uint64_t>("--seed", o.seed),
      output_path("--metrics-out", o.metrics_out),
      // 0 is only meaningful as the default (final dump only); an
      // EXPLICIT non-positive cadence is a mistake, not a request.
      count("--metrics-interval-ms", o.metrics_interval_ms, 1),
      output_path("--flight-record-out", o.flight_record_out),
  };
}

// Telemetry stack for a CLI session: registry and journal, the
// JSON-lines exporter when --metrics-out is given, and
// a flight recorder + liveness watchdog when --flight-record-out is.
// Declaration order is teardown order reversed: the watchdog stops
// sweeping first (no trips into a dying recorder), the recorder then
// writes its teardown bundle, the exporter its final snapshot, and
// only then does the registry go away; component callback gauges
// freeze on detach, so a dump after session teardown still reads
// their last values.
struct CliTelemetry {
  std::unique_ptr<Telemetry> telemetry;
  std::unique_ptr<TelemetryExporter> exporter;
  std::unique_ptr<FlightRecorder> flight;
  std::unique_ptr<Watchdog> watchdog;

  Telemetry* get() const { return telemetry.get(); }
};

CliTelemetry make_telemetry(const ServeOptions& options) {
  CliTelemetry out;
  if (!options.telemetry_enabled()) return out;
  out.telemetry = std::make_unique<Telemetry>();
  if (!options.metrics_out.empty()) {
    ExporterConfig exporter;
    exporter.path = options.metrics_out == "-" ? "" : options.metrics_out;
    exporter.interval_ms = options.metrics_interval_ms;
    out.exporter = std::make_unique<TelemetryExporter>(*out.telemetry, exporter);
  }
  if (!options.flight_record_out.empty()) {
    FlightRecorderConfig flight;
    flight.path = options.flight_record_out;
    out.flight = std::make_unique<FlightRecorder>(*out.telemetry, flight);
    out.watchdog = std::make_unique<Watchdog>(*out.telemetry);
  }
  return out;
}

void print_telemetry_summary(const CliTelemetry& telemetry, const ServeOptions& options) {
  if (!telemetry.telemetry) return;
  std::printf("telemetry:");
  if (!options.metrics_out.empty()) {
    std::printf(" JSON lines -> %s",
                options.metrics_out == "-" ? "stderr" : options.metrics_out.c_str());
  } else {
    std::printf(" metrics in-process only (pass --metrics-out to export)");
  }
  if (telemetry.watchdog) {
    std::printf(", watchdog %lld stalls", static_cast<long long>(telemetry.watchdog->stalls()));
  }
  if (telemetry.flight) {
    std::printf(", flight record -> %s (%lld dumps so far + teardown)",
                options.flight_record_out == "-" ? "stderr" : options.flight_record_out.c_str(),
                static_cast<long long>(telemetry.flight->dumps()));
  }
  std::printf("\n");
}

/// The served model: --checkpoint's weights, or `train_epochs` epochs
/// of training; then --save-checkpoint.
void prepare_model(HyScale& system, const ServeOptions& options) {
  if (!options.checkpoint.empty()) {
    load_checkpoint(system.model(), options.checkpoint);
    std::printf("weights:  loaded from %s\n", options.checkpoint.c_str());
  } else {
    for (int e = 0; e < options.train_epochs; ++e) {
      const EpochReport report = system.train_epoch();
      std::printf("train epoch %d: loss %.4f acc %.3f\n", e, report.loss,
                  report.train_accuracy);
    }
  }
  if (!options.save_checkpoint.empty()) {
    save_checkpoint(system.model(), options.save_checkpoint);
    std::printf("weights:  saved to %s\n", options.save_checkpoint.c_str());
  }
}

HybridTrainerConfig train_config(const ServeOptions& options) {
  HybridTrainerConfig config;
  config.model_kind = options.model_kind;
  config.seed = options.seed;
  return config;
}

ServingConfig serving_config(const ServeOptions& options, Telemetry* telemetry) {
  ServingConfig serving = options.serving;
  serving.seed = options.seed;
  serving.telemetry = telemetry;
  return serving;
}

LoadReport run_load(InferenceServer& server, const Dataset& dataset,
                    const ServeOptions& options, Telemetry* telemetry) {
  LoadGeneratorConfig load = options.load;
  load.seed = options.seed + 1;
  load.telemetry = telemetry;
  return LoadGenerator(server, dataset, load).run();
}

int run_serve(const ServeOptions& options) {
  const ServingConfig& flags = options.serving;
  const std::optional<Dataset> dataset = load_dataset(options.dataset, options.scale);
  if (!dataset) return 2;
  HyScale system(*dataset, cpu_fpga_platform(2), train_config(options));
  prepare_model(system, options);

  CliTelemetry telemetry = make_telemetry(options);
  ServingSession session = system.serve(serving_config(options, telemetry.get()));

  std::printf("\nserving %s on %d workers (", dataset->info.name.c_str(), flags.num_workers);
  if (flags.fanouts.empty()) {
    std::printf("full neighborhood");
  } else {
    std::printf("fanouts");
    for (int f : flags.fanouts) std::printf(" %d", f);
  }
  std::printf(", max_batch=%lld, max_wait=%.1fms, cache_rows=%lld, wire=%s)\n",
              static_cast<long long>(flags.batch.max_batch_requests),
              flags.batch.max_wait * 1e3, static_cast<long long>(flags.cache_capacity_rows),
              transfer_precision_name(flags.transfer_precision));

  const LoadReport report = run_load(*session.server, *dataset, options, telemetry.get());
  if (telemetry.exporter) telemetry.exporter->flush("load_drained");

  std::printf("\n%s\n", report.to_string().c_str());
  const ServingSnapshot& stats = report.server;
  std::printf("latency:  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
              stats.latency_p50 * 1e3, stats.latency_p95 * 1e3, stats.latency_p99 * 1e3,
              stats.latency_max * 1e3);
  std::printf("qps:      %.1f requests/s (%.1f seeds/s)\n", report.qps,
              report.qps * options.load.seeds_per_request);
  std::printf("batches:  %lld (mean %.2f requests, min %lld, max %lld)\n",
              static_cast<long long>(stats.completed_batches), stats.mean_batch_requests,
              static_cast<long long>(stats.min_batch_requests),
              static_cast<long long>(stats.max_batch_requests));
  std::printf("cache:    hit_rate %.3f (%s device, %s host)\n", stats.cache_hit_rate,
              format_bytes(stats.device_bytes).c_str(), format_bytes(stats.host_bytes).c_str());
  print_telemetry_summary(telemetry, options);
  return 0;
}

// ----------------------------------------------------------- stream mode

struct StreamOptions {
  ServeOptions serve;  ///< shared knobs (dataset, model, workers, batching…)
  UpdateGeneratorConfig updates;
  CompactionPolicy compaction;
  PublisherPolicy publisher;  ///< staleness_budget <= 0 disables the publisher
  ExpiryPolicy expiry;        ///< ttl < 0 = no TTL
  StreamingConfig streaming;

  StreamOptions() { updates.operations = 512; }
};

void stream_usage(const char* argv0) {
  std::printf(
      "usage: %s stream [--dataset NAME] [--model gcn|sage|gat] [--scale V]\n"
      "          [--train-epochs N] [--fanouts a,b,...|--full] [--workers K]\n"
      "          [--cache-rows R] [--precision fp32|int8] [--cache-rerank on|off]\n"
      "          [--clients C] [--requests N] [--seed X]\n"
      "          [--updates U] [--update-threads T] [--publish-every P]\n"
      "          [--vertex-add-frac F] [--feature-update-frac F]\n"
      "          [--delete-frac F] [--vertex-delete-frac F] [--delete-recent-frac F]\n"
      "          [--compact-edges E] [--compact-ratio R]\n"
      "          [--slo-ms MS] [--ttl-ms MS] [--sweep-ms MS] [--rerank-rows R]\n"
      "          [--metrics-out FILE|-] [--metrics-interval-ms MS]\n"
      "          [--flight-record-out FILE|-]\n"
      "\n"
      "lifecycle: --slo-ms bounds staleness (background publisher; 0 = caller-paced\n"
      "via --publish-every), --ttl-ms retires streamed-in entities idle that long\n"
      "(swept every --sweep-ms).\n"
      "--rerank-rows re-ranks the device cache every R gathered rows regardless\n"
      "of fold cadence.\n",
      argv0);
}

FlagTable stream_flags(StreamOptions& o) {
  UpdateGeneratorConfig& u = o.updates;
  FlagTable table = serve_flags(o.serve);
  table.insert(
      table.end(),
      {
          count<std::int64_t>("--updates", u.operations),
          count("--update-threads", u.num_threads, 1),
          count<std::int64_t>("--publish-every", u.publish_every),  // 0: SLO publisher paces
          real("--vertex-add-frac", u.vertex_add_fraction),
          real("--feature-update-frac", u.feature_update_fraction),
          real("--delete-frac", u.edge_delete_fraction),
          real("--vertex-delete-frac", u.vertex_delete_fraction),
          real("--delete-recent-frac", u.delete_recent_fraction),
          count<EdgeId>("--compact-edges", o.compaction.max_overlay_edges, 1),
          real("--compact-ratio", o.compaction.max_overlay_ratio),
          real("--slo-ms", o.publisher.staleness_budget, 1e-3),  // <= 0 disables
          real("--ttl-ms", o.expiry.ttl, 1e-3),                   // < 0: no TTL
          real("--sweep-ms", o.expiry.sweep_interval, 1e-3),
          count<std::int64_t>("--rerank-rows", o.serve.serving.cache_rerank_every_rows),
          choice("--cache-rerank", o.streaming.cache_rerank, {{"on", true}, {"off", false}}),
      });
  return table;
}

/// The device cache's hit rates; prints nothing without a cache.
void print_cache(const StaticFeatureCache* cache) {
  if (cache == nullptr) return;
  std::printf("cache:    hit_rate %.3f  since_invalidate %.3f (%lld invalidations)\n",
              cache->totals().hit_rate(), cache->since_invalidate().hit_rate(),
              static_cast<long long>(cache->invalidations()));
}

int run_stream(const StreamOptions& options) {
  const ServeOptions& serve = options.serve;
  const std::optional<Dataset> dataset = load_dataset(serve.dataset, serve.scale);
  if (!dataset) return 2;
  HyScale system(*dataset, cpu_fpga_platform(2), train_config(serve));
  prepare_model(system, serve);

  CliTelemetry telemetry = make_telemetry(serve);
  const ServingConfig serving = serving_config(serve, telemetry.get());
  StreamingConfig streaming = options.streaming;
  streaming.telemetry = telemetry.get();
  const PublisherPolicy& publisher = options.publisher;
  const ExpiryPolicy& expiry = options.expiry;
  const char* wire = transfer_precision_name(serving.transfer_precision);

  ServingSession session =
      system.stream(serving, streaming, options.compaction, publisher, expiry);
  std::printf("\nstreaming %s on %d workers (%lld base edges, compact at %lld overlay "
              "edges or %.0f%%, wire=%s, rerank=%s)\n",
              dataset->info.name.c_str(), serving.num_workers,
              static_cast<long long>(dataset->graph.num_edges()),
              static_cast<long long>(options.compaction.max_overlay_edges),
              options.compaction.max_overlay_ratio * 100.0, wire,
              streaming.cache_rerank ? "on" : "off");
  if (session.publisher() != nullptr) {
    std::printf("publisher: staleness budget %.3f ms\n", publisher.staleness_budget * 1e3);
  } else if (options.updates.publish_every > 0) {
    std::printf("publisher: off (fixed cadence, publish every %lld ops)\n",
                static_cast<long long>(options.updates.publish_every));
  } else {
    std::printf("publisher: off and no cadence — updates stay invisible until the "
                "final publish (pass --slo-ms or --publish-every)\n");
  }
  if (session.sweeper != nullptr) {
    std::printf("expiry:    ttl %.1f ms, sweep every %.1f ms\n", expiry.ttl * 1e3,
                expiry.sweep_interval * 1e3);
  }

  UpdateGeneratorConfig updates = options.updates;
  updates.seed = serve.seed + 2;
  UpdateReport update_report;
  // jthread: joined on the way out even when the load run throws.
  std::jthread update_thread([&] {
    update_report = UpdateGenerator(session.stream(), updates).run();
  });
  const LoadReport report = run_load(*session.server, *dataset, serve, telemetry.get());
  update_thread.join();
  if (telemetry.exporter) telemetry.exporter->flush("load_drained");

  const ServingSnapshot& stats = report.server;
  std::printf("\nqueries:  %s\n", report.to_string().c_str());
  std::printf("updates:  %s\n", update_report.to_string().c_str());
  const StreamStats stream_stats = session.stream().stats();
  std::printf("stream:   %s\n", stream_stats.to_string().c_str());
  std::printf("latency:  p50 %.3f ms  p99 %.3f ms  (queue p99 %.3f ms, compute mean %.3f ms)\n",
              stats.latency_p50 * 1e3, stats.latency_p99 * 1e3, stats.queue_wait_p99 * 1e3,
              stats.compute_mean * 1e3);
  std::printf("graph:    %lld vertices (%lld dead, %lld recycled), version %llu, "
              "%lld compactions\n",
              static_cast<long long>(session.stream().num_vertices()),
              static_cast<long long>(stream_stats.dead_vertices),
              static_cast<long long>(stream_stats.recycled_vertices),
              static_cast<unsigned long long>(stream_stats.version_id),
              static_cast<long long>(stream_stats.compactions));
  std::printf("lifecycle: %lld ops annihilated in %lld passes, %lld expired",
              static_cast<long long>(stream_stats.annihilated_ops),
              static_cast<long long>(stream_stats.annihilations),
              static_cast<long long>(stream_stats.expired_vertices));
  if (session.publisher() != nullptr) {
    std::printf(", publisher %lld publishes (worst staleness %.3f ms)",
                static_cast<long long>(session.publisher()->publishes()),
                session.publisher()->worst_staleness() * 1e3);
  }
  std::printf("\n");
  print_cache(session.server->cache());
  print_telemetry_summary(telemetry, serve);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "serve") return run_mode(argc, argv, 2, serve_flags, serve_usage, run_serve);
  if (mode == "stream") return run_mode(argc, argv, 2, stream_flags, stream_usage, run_stream);
  return run_mode(argc, argv, 1, train_flags, train_usage, run_train);
}
