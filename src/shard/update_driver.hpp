// Synthetic update-stream driver for the SHARDED serving stack — the
// facade analogue of stream/UpdateGenerator.
//
// Emits the identical seeded op mix (edge inserts/retractions, vertex
// arrivals/retirements, feature refreshes) against a
// ShardedStreamingGraph, so the N-shard bench points are generated by
// the same distribution as the flat ones.  Deletion targets are drawn
// from the latest ADOPTED cut (the sharded notion of "what a real feed
// knows exists"); the fixed publish cadence maps to publish_all() —
// every shard publishes and the cut advances — while the default
// leaves mid-run visibility to the per-shard Publishers + CutAdopter a
// sharded ServingSession runs.  Reuses UpdateGeneratorConfig /
// UpdateReport so harnesses can swap drivers without translating
// configs (report.publishes counts CUT ADOPTIONS here — the sharded
// visibility event; recycled_vertices is always 0, recycling is off).
#pragma once

#include "shard/sharded_graph.hpp"
#include "stream/update_generator.hpp"

namespace hyscale {

class ShardedUpdateDriver {
 public:
  /// `graph` must outlive the driver.
  ShardedUpdateDriver(ShardedStreamingGraph& graph, UpdateGeneratorConfig config = {});

  /// Runs the full update session; blocks until every thread is done.
  /// Wrap in a std::thread to overlap with a query load.
  UpdateReport run();

 private:
  ShardedStreamingGraph& graph_;
  UpdateGeneratorConfig config_;
};

}  // namespace hyscale
