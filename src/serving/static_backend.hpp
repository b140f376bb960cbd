// Static serving backend: the immutable dataset CSR behind the seam.
//
// The snapshot is the dataset itself, so acquire() is free and the
// freshness id is always 0.  Sampling goes through NeighborSampler (or
// sample_full when the fanouts are empty).  The backend holds a
// MutableFeatureStore built from the dataset's features at
// transfer_precision, so every gathered row — cache hit or miss — is
// at that precision; gathers go through one PaGraph-style
// StaticFeatureCache over the store when configured, and straight
// through the store otherwise.  The traffic-cadence re-rank is the
// cache's rerank_by_traffic over the dataset graph, the ranking
// StreamingGraph uses at fold time.
#pragma once

#include <memory>

#include "serving/backend.hpp"

namespace hyscale {

/// `dataset` must outlive the backend.  Copies what it needs from
/// `config` (fanouts, cache sizing, precision); throws
/// std::invalid_argument for kFp16 (the store rejects it).
std::unique_ptr<ServingBackend> make_static_backend(const Dataset& dataset,
                                                    const ServingConfig& config);

}  // namespace hyscale
