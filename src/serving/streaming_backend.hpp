// Streaming serving backend: an evolving StreamingGraph behind the seam.
//
// acquire() pins the graph's latest PUBLISHED GraphVersion for the
// whole micro-batch (snapshot isolation: in-flight batches keep their
// version until release), sampling goes through an OverlaySampler over
// that version (sample_full_overlay when the fanouts are empty), and
// gathers go through StreamingGraph::gather — device cache rows plus
// live feature store at the store's precision.  The backend owns the
// device cache: built over the store, attached to the graph for
// update_feature invalidation / remove_vertex eviction, detached when
// the backend dies.
#pragma once

#include <memory>

#include "serving/backend.hpp"

namespace hyscale {

class StreamingGraph;

/// `stream` (and its dataset) must outlive the backend.  The graph's
/// feature store fixes the wire precision: throws std::invalid_argument
/// when config.transfer_precision differs from the store's.
std::unique_ptr<ServingBackend> make_streaming_backend(StreamingGraph& stream,
                                                       const ServingConfig& config);

}  // namespace hyscale
