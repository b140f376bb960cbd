#include "obs/journal.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace hyscale {

void EventJournal::log(std::string kind, std::string detail) {
  std::lock_guard lock(mutex_);
  if (events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(JournalEvent{steady_ns(), std::move(kind), std::move(detail)});
}

std::vector<JournalEvent> EventJournal::drain() {
  std::lock_guard lock(mutex_);
  std::vector<JournalEvent> out(events_.begin(), events_.end());
  events_.clear();
  return out;
}

std::vector<JournalEvent> EventJournal::events() const {
  std::lock_guard lock(mutex_);
  return std::vector<JournalEvent>(events_.begin(), events_.end());
}

std::int64_t EventJournal::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

void append_json_int(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

void append_metrics_json(std::string& out, const MetricsSnapshot& snap) {
  out += "\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : snap.scalars()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_json_number(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& view : snap.histograms()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, view.name);
    out += ":{\"count\":";
    append_json_int(out, view.count);
    out += ",\"mean_ms\":";
    append_json_number(out, view.mean_ms());
    out += ",\"p50_ms\":";
    append_json_number(out, view.percentile_ms(0.50));
    out += ",\"p95_ms\":";
    append_json_number(out, view.percentile_ms(0.95));
    out += ",\"p99_ms\":";
    append_json_number(out, view.percentile_ms(0.99));
    out += ",\"max_ms\":";
    append_json_number(out, view.max_ms);
    out += '}';
  }
  out += '}';
}

TelemetryExporter::TelemetryExporter(Telemetry& telemetry, ExporterConfig config)
    : telemetry_(telemetry), config_(std::move(config)) {
  if (config_.path.empty()) {
    file_ = stderr;
  } else {
    file_ = std::fopen(config_.path.c_str(), "w");
    if (file_ == nullptr)
      throw std::runtime_error("TelemetryExporter: cannot open " + config_.path);
    owns_file_ = true;
  }
  if (config_.interval_ms > 0) {
    Heartbeat& heart = telemetry_.heartbeats().register_thread(
        "obs.exporter", static_cast<std::int64_t>(config_.interval_ms) * 1'000'000);
    thread_.start(&heart, [this] {
      while (thread_.sleep(static_cast<double>(config_.interval_ms) * 1e-3)) {
        flush("periodic");
        thread_.beat();
      }
    });
  }
}

TelemetryExporter::~TelemetryExporter() { stop(); }

void TelemetryExporter::stop() {
  if (stopped_.exchange(true)) return;
  thread_.stop();
  flush("final");
  if (owns_file_ && file_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(file_));
    file_ = nullptr;
  }
}

void TelemetryExporter::flush(const std::string& reason) {
  // Events first so a reader replaying the stream sees causes before
  // the snapshot that aggregates them.
  for (const JournalEvent& event : telemetry_.journal().drain())
    write_line(event_line(event));
  write_line(snapshot_line(reason));
}

void TelemetryExporter::write_line(const std::string& line) {
  std::lock_guard lock(io_mutex_);
  if (file_ == nullptr) return;
  std::FILE* f = static_cast<std::FILE*>(file_);
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  std::fflush(f);
  ++lines_;
}

std::int64_t TelemetryExporter::lines_written() const {
  std::lock_guard lock(io_mutex_);
  return lines_;
}

std::string TelemetryExporter::event_line(const JournalEvent& event) {
  std::string out = "{\"type\":\"event\",\"t_ns\":";
  append_json_int(out, event.t_ns);
  out += ",\"kind\":";
  append_json_string(out, event.kind);
  out += ",\"detail\":";
  append_json_string(out, event.detail);
  out += '}';
  return out;
}

std::string TelemetryExporter::snapshot_line(const std::string& reason) {
  const MetricsSnapshot snap = telemetry_.registry().snapshot();
  std::string out = "{\"type\":\"snapshot\",\"reason\":";
  append_json_string(out, reason);
  out += ",\"t_ns\":";
  append_json_int(out, steady_ns());
  out += ',';
  append_metrics_json(out, snap);
  out += '}';
  return out;
}

}  // namespace hyscale
