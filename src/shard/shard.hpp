// Umbrella header for the sharded streaming serving tier, kept only for
// perfbench's churn-sharded workload.
//
//   ShardOwnerMap        — vertex -> shard: one seeded hash for every id
//   ShardedCut           — immutable per-shard version vector; queries
//                          only ever read an adopted cut
//   ShardedStreamingGraph— N hash-owned StreamingGraph shards behind one
//                          facade: broadcast vertex space, owner-routed
//                          edges, one shared feature store and device
//                          cache
//   ShardedSampler       — bit-identical GraphSAGE sampling over a cut
//   CutAdopter           — background version-vector advancer
#pragma once

#include "shard/cut_adopter.hpp"
#include "shard/sharded_graph.hpp"
#include "shard/sharded_sampler.hpp"
