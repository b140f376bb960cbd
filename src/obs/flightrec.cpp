#include "obs/flightrec.hpp"

#include <cstdio>

#include "obs/telemetry.hpp"

namespace hyscale {

namespace {

constexpr std::size_t kMaxJournalEvents = 256;  ///< newest events included per dump
constexpr std::size_t kMaxExemplars = 8;        ///< slowest traces included per dump

void append_stage(std::string& out, const char* key, const StageSpanView& span) {
  out += '"';
  out += key;
  out += "\":";
  if (span.present) {
    append_json_number(out, span.ms());
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
  const std::int64_t now = steady_ns();
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
  last_dump_ns_.store(steady_ns(), std::memory_order_relaxed);
  dumps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::string FlightRecorder::render(const std::string& reason) const {
  const std::int64_t now = steady_ns();
  std::string out = "{\"type\":\"flight_record\",\"reason\":";
  append_json_string(out, reason);
  out += ",\"t_ns\":";
  append_json_int(out, now);

  out += ",\"trips\":[";
  bool first = true;
  for (const TripRecord& trip : telemetry_.trips()) {
    if (!first) out += ',';
    first = false;
    out += "{\"t_ns\":";
    append_json_int(out, trip.t_ns);
    out += ",\"reason\":";
    append_json_string(out, trip.reason);
    out += '}';
  }
  out += "],\"suppressed_trips\":";
  append_json_int(out, suppressed());

  out += ',';
  append_metrics_json(out, telemetry_.registry().snapshot());

  // Newest journal events, non-consuming: the exporter's drain cadence
  // is unaffected and the record still shows recent causes.
  std::vector<JournalEvent> events = telemetry_.journal().events();
  const std::size_t skip =
      events.size() > kMaxJournalEvents ? events.size() - kMaxJournalEvents : 0;
  out += ",\"journal\":{\"events\":[";
  first = true;
  for (std::size_t i = skip; i < events.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "{\"t_ns\":";
    append_json_int(out, events[i].t_ns);
    out += ",\"kind\":";
    append_json_string(out, events[i].kind);
    out += ",\"detail\":";
    append_json_string(out, events[i].detail);
    out += '}';
  }
  out += "]}";

  out += ",\"heartbeats\":[";
  first = true;
  for (const HeartbeatRegistry::View& h : telemetry_.heartbeats().views()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, h.name);
    out += ",\"age_ms\":";
    append_json_number(out, h.beats > 0 ? static_cast<double>(now - h.last_beat_ns) * 1e-6 : -1.0);
    out += ",\"interval_hint_ms\":";
    append_json_number(out, static_cast<double>(h.interval_hint_ns) * 1e-6);
    out += ",\"beats\":";
    append_json_int(out, h.beats);
    out += ",\"idle\":";
    out += h.idle ? "true" : "false";
    out += ",\"retired\":";
    out += h.retired ? "true" : "false";
    out += '}';
  }
  out += ']';

  const ExemplarRing& ring = telemetry_.exemplars();
  out += ",\"exemplars\":{\"offered\":";
  append_json_int(out, ring.offered());
  out += ",\"admitted\":";
  append_json_int(out, ring.admitted());
  out += ",\"threshold_ms\":";
  append_json_number(out, static_cast<double>(ring.threshold_ns()) * 1e-6);
  out += ",\"slowest\":[";
  first = true;
  std::size_t emitted = 0;
  for (const RequestTrace& trace : ring.slowest()) {
    if (emitted++ >= kMaxExemplars) break;
    if (!first) out += ',';
    first = false;
    out += "{\"request_id\":";
    append_json_int(out, static_cast<std::int64_t>(trace.request_id));
    out += ",\"batch_id\":";
    append_json_int(out, static_cast<std::int64_t>(trace.batch_id));
    out += ",\"total_ms\":";
    append_json_number(out, trace.total_ms());
    out += ",\"complete\":";
    out += trace.complete() ? "true" : "false";
    out += ",\"batch_requests\":";
    append_json_int(out, trace.batch_requests);
    out += ",\"batch_seeds\":";
    append_json_int(out, trace.batch_seeds);
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
  out += "]}}";
  return out;
}

}  // namespace hyscale
