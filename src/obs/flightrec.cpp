#include "obs/flightrec.hpp"

#include <cmath>
#include <cstdio>

#include "obs/telemetry.hpp"

namespace hyscale {

namespace {

constexpr std::size_t kMaxJournalEvents = 256;  ///< newest events included per dump
constexpr std::size_t kMaxExemplars = 8;        ///< slowest traces included per dump

// Same non-finite policy as the exporter: JSON has no inf/nan.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

void append_stage(std::string& out, const char* key, const StageSpanView& span) {
  out += '"';
  out += key;
  out += "\":";
  if (span.present) {
    append_number(out, span.ms());
  } else {
    out += "null";
  }
}

}  // namespace

FlightRecorder::FlightRecorder(Telemetry& telemetry, FlightRecorderConfig config)
    : telemetry_(telemetry), config_(std::move(config)) {
  telemetry_.set_trip_handler([this](const std::string& reason) { on_trip(reason); });
}

FlightRecorder::~FlightRecorder() {
  // Unregister under the trip mutex first: after this line no trip can
  // be mid-invocation on another thread, so the teardown dump below
  // reads a recorder no one else touches.
  telemetry_.clear_trip_handler();
  if (config_.dump_on_teardown) dump("teardown");
}

void FlightRecorder::on_trip(const std::string& reason) {
  const std::int64_t now = StageTracer::now_ns();
  const std::int64_t last = last_dump_ns_.load(std::memory_order_relaxed);
  if (last != 0 && now - last < config_.min_dump_gap_ns) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  dump(reason);
}

bool FlightRecorder::dump(const std::string& reason) {
  if (config_.path.empty()) return false;
  const std::string body = render(reason);
  std::lock_guard lock(io_mutex_);
  const bool to_stderr = config_.path == "-";
  std::FILE* f = to_stderr ? stderr : std::fopen(config_.path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  if (to_stderr)
    std::fflush(f);
  else
    std::fclose(f);
  last_dump_ns_.store(StageTracer::now_ns(), std::memory_order_relaxed);
  dumps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::string FlightRecorder::render(const std::string& reason) const {
  const std::int64_t now = StageTracer::now_ns();
  std::string out = "{\"type\":\"flight_record\",\"reason\":";
  append_string(out, reason);
  out += ",\"t_ns\":";
  append_int(out, now);

  out += ",\"trips\":[";
  bool first = true;
  for (const TripRecord& trip : telemetry_.trips()) {
    if (!first) out += ',';
    first = false;
    out += "{\"t_ns\":";
    append_int(out, trip.t_ns);
    out += ",\"reason\":";
    append_string(out, trip.reason);
    out += '}';
  }
  out += "],\"suppressed_trips\":";
  append_int(out, suppressed());

  const MetricsSnapshot snap = telemetry_.registry().snapshot();
  out += ",\"metrics\":{";
  first = true;
  for (const auto& [name, value] : snap.scalars()) {
    if (!first) out += ',';
    first = false;
    append_string(out, name);
    out += ':';
    append_number(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& view : snap.histograms()) {
    if (!first) out += ',';
    first = false;
    append_string(out, view.name);
    out += ":{\"count\":";
    append_int(out, view.count);
    out += ",\"mean_ms\":";
    append_number(out, view.mean_ms());
    out += ",\"p50_ms\":";
    append_number(out, view.percentile_ms(0.50));
    out += ",\"p99_ms\":";
    append_number(out, view.percentile_ms(0.99));
    out += ",\"max_ms\":";
    append_number(out, view.max_ms);
    out += '}';
  }
  out += '}';

  // Newest journal events, non-consuming: the exporter's drain cadence
  // is unaffected and the record still shows recent causes.
  std::vector<JournalEvent> events = telemetry_.journal().events();
  const std::size_t skip =
      events.size() > kMaxJournalEvents ? events.size() - kMaxJournalEvents : 0;
  out += ",\"journal\":{\"dropped\":";
  append_int(out, telemetry_.journal().dropped());
  out += ",\"events\":[";
  first = true;
  for (std::size_t i = skip; i < events.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "{\"t_ns\":";
    append_int(out, events[i].t_ns);
    out += ",\"kind\":";
    append_string(out, events[i].kind);
    out += ",\"detail\":";
    append_string(out, events[i].detail);
    out += '}';
  }
  out += "]}";

  out += ",\"heartbeats\":[";
  first = true;
  for (const HeartbeatRegistry::View& h : telemetry_.heartbeats().views()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_string(out, h.name);
    out += ",\"age_ms\":";
    append_number(out, h.beats > 0 ? static_cast<double>(now - h.last_beat_ns) * 1e-6 : -1.0);
    out += ",\"interval_hint_ms\":";
    append_number(out, static_cast<double>(h.interval_hint_ns) * 1e-6);
    out += ",\"beats\":";
    append_int(out, h.beats);
    out += ",\"idle\":";
    out += h.idle ? "true" : "false";
    out += ",\"retired\":";
    out += h.retired ? "true" : "false";
    out += '}';
  }
  out += ']';

  const ExemplarRing& ring = telemetry_.exemplars();
  out += ",\"exemplars\":{\"offered\":";
  append_int(out, ring.offered());
  out += ",\"admitted\":";
  append_int(out, ring.admitted());
  out += ",\"threshold_ms\":";
  append_number(out, static_cast<double>(ring.threshold_ns()) * 1e-6);
  out += ",\"slowest\":[";
  first = true;
  std::size_t emitted = 0;
  for (const RequestTrace& trace : ring.slowest()) {
    if (emitted++ >= kMaxExemplars) break;
    if (!first) out += ',';
    first = false;
    out += "{\"request_id\":";
    append_int(out, static_cast<std::int64_t>(trace.request_id));
    out += ",\"batch_id\":";
    append_int(out, static_cast<std::int64_t>(trace.batch_id));
    out += ",\"total_ms\":";
    append_number(out, trace.total_ms());
    out += ",\"complete\":";
    out += trace.complete() ? "true" : "false";
    out += ",\"batch_requests\":";
    append_int(out, trace.batch_requests);
    out += ",\"batch_seeds\":";
    append_int(out, trace.batch_seeds);
    out += ",\"stages\":{";
    append_stage(out, "queue_ms", trace.queue);
    out += ',';
    append_stage(out, "sample_ms", trace.sample);
    out += ',';
    append_stage(out, "gather_ms", trace.gather);
    out += ',';
    append_stage(out, "forward_ms", trace.forward);
    out += ',';
    append_stage(out, "reply_ms", trace.reply);
    out += "}}";
  }
  out += "]}";

  out += ",\"trace\":{\"recorded\":";
  append_int(out, telemetry_.tracer().recorded());
  out += ",\"retained\":";
  append_int(out, static_cast<std::int64_t>(telemetry_.tracer().collect().size()));
  out += ",\"dropped\":";
  append_int(out, telemetry_.tracer().dropped());
  out += "}}";
  return out;
}

}  // namespace hyscale
