// The telemetry bundle every subsystem wires against: one registry and
// one journal — plus the diagnosis plane built on them: tail exemplars
// (full stage traces of the slowest requests), a heartbeat
// registry for the liveness watchdog, and the trip channel that turns
// a watchdog stall or SLO breach into a flight-recorder dump.
//
// Ownership: the application (bench binary, CLI, test) declares a
// Telemetry before building the serving/streaming session and hands a
// raw pointer down through the config structs (ServingConfig.telemetry,
// StreamingConfig.telemetry, ...).  A null pointer everywhere means
// telemetry off — counts and histograms cost nothing extra, and the
// serving worker reads no stage clocks — so the hot path pays nothing
// by default.
//
// Every measurement is recorded once, by the component that makes it:
// counts in its own atomics, latencies in its own Histograms.  The
// registry owns no instruments; it reads those records through
// snapshot-time callbacks and borrowed histograms, and each component
// that registered one calls registry.detach(this) in its destructor,
// freezing its final values.  The Telemetry must outlive every
// component it is handed to.  See obs/metrics.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/exemplars.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"

namespace hyscale {

/// One escalation: a watchdog stall, a publisher SLO breach, or an
/// explicit operator request.
struct TripRecord {
  std::int64_t t_ns = 0;
  std::string reason;
};

class Telemetry {
 public:
  Telemetry()
      : journal_(kJournalCapacity),
        exemplars_(kExemplarCapacity) {
    // Journal overflow is otherwise silent; surfacing the drop count as
    // a registry value puts it in every exporter snapshot line and
    // every flight record.  Registered first so it precedes all
    // component values in registration order.
    registry_.register_callback("journal.dropped_events", this,
                                [this] { return static_cast<double>(journal_.dropped()); });
  }
  ~Telemetry() { registry_.detach(this); }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  EventJournal& journal() { return journal_; }
  const EventJournal& journal() const { return journal_; }
  ExemplarRing& exemplars() { return exemplars_; }
  const ExemplarRing& exemplars() const { return exemplars_; }
  HeartbeatRegistry& heartbeats() { return heartbeats_; }
  const HeartbeatRegistry& heartbeats() const { return heartbeats_; }

  /// Escalation channel.  trip() records the reason (bounded history)
  /// and invokes the handler — the FlightRecorder's dump — UNDER the
  /// trip mutex, so a handler owner that clears itself in its
  /// destructor (clear_trip_handler below) can never be destroyed
  /// mid-invocation.  The mutex is recursive because the handler reads
  /// back through this API (a flight record includes trips()); only
  /// same-thread re-entry is allowed, the cross-thread destructor
  /// guarantee is unchanged.
  void trip(const std::string& reason) {
    std::lock_guard lock(trip_mutex_);
    if (trips_.size() >= kMaxTrips) trips_.erase(trips_.begin());
    trips_.push_back(TripRecord{steady_ns(), reason});
    if (trip_handler_) trip_handler_(reason);
  }
  void set_trip_handler(std::function<void(const std::string&)> handler) {
    std::lock_guard lock(trip_mutex_);
    trip_handler_ = std::move(handler);
  }
  void clear_trip_handler() {
    std::lock_guard lock(trip_mutex_);
    trip_handler_ = nullptr;
  }
  std::vector<TripRecord> trips() const {
    std::lock_guard lock(trip_mutex_);
    return trips_;
  }

 private:
  static constexpr std::size_t kJournalCapacity = 1024;
  static constexpr std::size_t kExemplarCapacity = 16;  ///< slowest-request traces retained
  static constexpr std::size_t kMaxTrips = 64;

  MetricsRegistry registry_;
  EventJournal journal_;
  ExemplarRing exemplars_;
  HeartbeatRegistry heartbeats_;

  mutable std::recursive_mutex trip_mutex_;
  std::function<void(const std::string&)> trip_handler_;
  std::vector<TripRecord> trips_;
};

}  // namespace hyscale
