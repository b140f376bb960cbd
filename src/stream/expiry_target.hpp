// The surface the ExpirySweeper paces TTL retirement over.
//
// TTL expiry used to be wired to StreamingGraph alone, which left
// sharded deployments caller-paced: retirement must be FACADE-wide
// (broadcast remove_vertex keeps every shard's vertex space in
// lockstep), so a per-shard sweeper would be wrong, and no sweeper at
// all meant nothing expired.  This tiny interface is the fix: anything
// that can retire idle streamed-in vertices under the standard pacing
// contract — a flat StreamingGraph or the ShardedStreamingGraph facade
// — can sit behind one background ExpirySweeper.
#pragma once

#include <cstdint>

#include "common/timer.hpp"

namespace hyscale {

class Telemetry;

class ExpiryTarget {
 public:
  virtual ~ExpiryTarget() = default;

  /// One paced TTL pass: retire up to `max_retire` streamed-in vertices
  /// idle past `ttl`, stopping at the first candidate reached while a
  /// fold is in flight, so a retirement burst never piles onto an
  /// overlay the compactor is already draining.  Returns the number of
  /// vertices retired.
  virtual std::int64_t sweep_expired(Seconds ttl, std::int64_t max_retire) = 0;

  /// Telemetry plane the sweeper registers its instruments on; null =
  /// telemetry off.
  virtual Telemetry* telemetry() const = 0;

  /// Instrument-name prefix for the sweeper's heartbeat ("stream",
  /// "sharded") — kept stable per target so dashboards and the
  /// liveness watchdog see consistent thread names.
  virtual const char* expiry_scope() const = 0;
};

}  // namespace hyscale
