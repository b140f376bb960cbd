// SLO flight recorder: one-file post-mortem bundles.
//
// On a trip (watchdog stall, publisher SLO breach, explicit call) or at
// teardown, dump() writes a single JSON object capturing the state an
// operator needs to diagnose the episode after the fact:
//   * the trip history and the reason for THIS dump,
//   * a full registry snapshot (scalars + histogram summaries; the
//     journal drop count is `journal.dropped_events`),
//   * the journal's retained events (non-consuming — the exporter's
//     periodic drain still sees them),
//   * per-thread heartbeat ages (who was busy, who was idle, who had
//     stopped beating),
//   * the exemplar ring's slowest-request traces with per-stage
//     latency attribution.
//
// The recorder registers itself as the Telemetry trip handler at
// construction; trips are rate-limited (min_dump_gap_ns) so a breach
// storm costs one file write per window, not one per breach.  The
// destructor writes a final `teardown` dump (ignoring the rate limit)
// and unregisters — under the same trip mutex the handler runs under,
// so a trip can never race the recorder's destruction.
//
// The file at `path` is OVERWRITTEN on every dump: the latest record
// wins, and a crash between dumps still leaves the previous complete
// bundle on disk (write is to the final path via one buffered stream,
// closed before dump() returns).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace hyscale {

class Telemetry;

struct FlightRecorderConfig {
  std::string path;  ///< output file; "-" = stderr, empty disables dumps
  bool dump_on_teardown = true;
  std::int64_t min_dump_gap_ns = 100'000'000;  ///< trip rate limit (100 ms)
};

class FlightRecorder {
 public:
  /// `telemetry` must outlive the recorder.  Installs itself as the
  /// trip handler (replacing any previous one).
  FlightRecorder(Telemetry& telemetry, FlightRecorderConfig config);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Explicit dump; returns false when the path is empty or the file
  /// cannot be written.  Not rate-limited.
  bool dump(const std::string& reason);

  std::int64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }
  /// Trips skipped by the rate limiter.
  std::int64_t suppressed() const { return suppressed_.load(std::memory_order_relaxed); }
  const std::string& path() const { return config_.path; }

 private:
  void on_trip(const std::string& reason);
  std::string render(const std::string& reason) const;

  Telemetry& telemetry_;
  FlightRecorderConfig config_;
  mutable std::mutex io_mutex_;  ///< explicit dump() can race a trip dump
  std::atomic<std::int64_t> dumps_{0};
  std::atomic<std::int64_t> suppressed_{0};
  std::atomic<std::int64_t> last_dump_ns_{0};
};

}  // namespace hyscale
