// Sharded serving backend: a ShardedStreamingGraph facade behind the seam.
//
// acquire() pins the facade's latest ADOPTED cross-shard cut — one
// frozen version vector, so a query never mixes a pre-publish shard
// with a post-publish one — and sampling goes through a ShardedSampler
// over that cut (sample_full_sharded when the fanouts are empty).
// Gathers go through the facade's one feature plane: the store every
// shard shares, plus the one device cache this backend owns (built over
// the full dataset graph and the shared store, attached through
// the facade for invalidation/eviction, detached when the backend
// dies).
#pragma once

#include <memory>

#include "serving/backend.hpp"

namespace hyscale {

class ShardedStreamingGraph;

/// `sharded` (and its dataset) must outlive the backend.  The shared
/// feature store fixes the wire precision: throws std::invalid_argument
/// when config.transfer_precision differs from the store's.
std::unique_ptr<ServingBackend> make_sharded_backend(ShardedStreamingGraph& sharded,
                                                     const ServingConfig& config);

}  // namespace hyscale
