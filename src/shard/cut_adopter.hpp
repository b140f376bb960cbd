// Background cut adopter: the router's version-vector advancer.
//
// Per-shard Publishers make each shard's ingest visible as per-shard
// GraphVersions, but queries only ever read an adopted ShardedCut — a
// shard's publish is invisible until a cut containing it is installed.
// The CutAdopter closes that gap: a background thread polls the facade
// every kCutAdopterPoll and adopts whenever some shard has published
// past the current cut, bounding cut staleness at roughly that interval
// on top of the per-shard publishers' SLO.  Feature updates need no
// adoption: every shard serves from one shared store.  Idles
// (watchdog-visible) when nothing moved; adoption itself is serialized
// inside the facade, so a concurrent test-driven publish_all is safe.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/timer.hpp"
#include "shard/sharded_graph.hpp"

namespace hyscale {

/// How often the adopter checks for newly published shard versions.
inline constexpr Seconds kCutAdopterPoll = 1e-3;

class CutAdopter {
 public:
  /// `graph` must outlive the adopter.  The background thread starts
  /// immediately and stops (joined) on destruction or stop().
  explicit CutAdopter(ShardedStreamingGraph& graph);

  CutAdopter(const CutAdopter&) = delete;
  CutAdopter& operator=(const CutAdopter&) = delete;

  void stop() { thread_.stop(); }

  /// Cuts this thread installed (adoptions triggered elsewhere — e.g. a
  /// caller's publish_all — are not counted here; the facade's
  /// sharded.cut_adoptions counter covers all of them).
  std::int64_t adoptions() const { return adoptions_.load(std::memory_order_relaxed); }

 private:
  ShardedStreamingGraph& graph_;
  std::atomic<std::int64_t> adoptions_{0};
  LifecycleThread thread_;  ///< keep last: starts in the constructor's tail
};

}  // namespace hyscale
