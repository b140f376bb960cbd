// Lifecycle event journal + JSON-lines exporter.
//
// The journal is a bounded ring of discrete lifecycle events (version
// published, fold completed, SLO breach, TTL sweep) that the exporter
// drains into JSON lines.  The stream tier's events carry their own
// durations in `detail` (`ms=`; a fold splits `cut_ms= build_ms=
// rebase_ms=`), so the journal is the one record of each lifecycle
// stage's time.  The exporter runs an optional periodic thread — each
// tick emits one `snapshot` line (every registry value and histogram)
// and one `event` line per journal entry since the last tick — and
// always writes a final `snapshot`
// line with reason "final" when stopped, so even a crash-adjacent run
// leaves a parseable record of its last state.
//
// Output is strictly one JSON object per line (JSON-lines), to a file
// or stderr; CI parses it back with `json.loads` per line.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/watchdog.hpp"

namespace hyscale {

class Telemetry;
class MetricsSnapshot;

/// One discrete lifecycle occurrence.  `detail` is free text (it is
/// JSON-escaped on export, so any content is safe).
struct JournalEvent {
  std::int64_t t_ns = 0;  ///< steady_ns() at log time
  std::string kind;       ///< e.g. "publish", "fold", "slo_breach"
  std::string detail;
};

/// Mutex-guarded bounded ring of events; oldest entries are dropped
/// once `capacity` is reached (the drop count is retained).
class EventJournal {
 public:
  explicit EventJournal(std::size_t capacity = 1024) : capacity_(capacity) {}

  void log(std::string kind, std::string detail);

  /// Removes and returns every retained event (exporter ticks).
  std::vector<JournalEvent> drain();
  /// Copy without consuming (tests, end-of-run summaries).
  std::vector<JournalEvent> events() const;
  std::int64_t dropped() const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::deque<JournalEvent> events_;
  std::int64_t dropped_ = 0;
};

/// Minimal JSON string escaping for exporter output.
std::string json_escape(const std::string& raw);

// The JSON writers the exporter and the flight recorder share.  JSON
// has no inf/nan, so a non-finite number (an empty histogram's mean) is
// written as 0 and every record stays loadable.
void append_json_number(std::string& out, double v);
void append_json_int(std::string& out, std::int64_t v);
void append_json_string(std::string& out, const std::string& s);
/// Appends `"metrics":{name:value,...},"histograms":{name:{count,
/// mean_ms,p50_ms,p95_ms,p99_ms,max_ms},...}` for one registry snapshot.
void append_metrics_json(std::string& out, const MetricsSnapshot& snap);

struct ExporterConfig {
  std::string path;        ///< output file; empty = stderr
  int interval_ms = 0;     ///< 0 = no periodic thread, final dump only
};

class TelemetryExporter {
 public:
  /// `telemetry` must outlive the exporter.  Throws std::runtime_error
  /// if `config.path` cannot be opened.
  TelemetryExporter(Telemetry& telemetry, ExporterConfig config);
  ~TelemetryExporter();  ///< stops the thread and writes the final dump

  /// Emits pending event lines plus one snapshot line tagged `reason`.
  void flush(const std::string& reason);
  /// Stops the periodic thread and writes the "final" snapshot; safe to
  /// call more than once (the destructor calls it too).
  void stop();

  std::int64_t lines_written() const;

 private:
  void write_line(const std::string& line);
  std::string snapshot_line(const std::string& reason);
  std::string event_line(const JournalEvent& event);

  Telemetry& telemetry_;
  ExporterConfig config_;
  mutable std::mutex io_mutex_;
  void* file_ = nullptr;  ///< FILE*; stderr when config_.path is empty
  bool owns_file_ = false;
  std::int64_t lines_ = 0;
  std::atomic<bool> stopped_{false};
  LifecycleThread thread_;  ///< the periodic thread; keep last
};

}  // namespace hyscale
