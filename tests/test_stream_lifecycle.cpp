// Churn-lifecycle tests (src/stream/): in-place tombstone annihilation
// (including the annihilation-vs-in-flight-snapshot safety properties —
// a cancelled pair straddling a compaction cut must never be erased, or
// the fold resurrects the edge), the NON-BLOCKING fold state machine
// (publishes, ingest and cut-gated annihilation interleaving with a parked
// off-lock CSR build; a second fold refused, not blocked), TTL eviction
// sweeps and their tombstone-burst pacing (including read-path gather
// touches), the SLO-driven background Publisher and its completion-time
// staleness accounting, the compactor's annihilate-before-fold
// escalation and refused-fold backoff, and the update generator's
// starvation-proof publish cadence.  The randomized stream-vs-rebuild
// harness that interleaves these steps lives in
// test_stream_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/hyscale.hpp"

namespace hyscale {
namespace {

const Dataset& community() {
  static const Dataset ds = make_community_dataset(3, 32, 8, 2);
  return ds;
}

std::vector<float> random_row(Xoshiro256& rng, std::int64_t cols) {
  std::vector<float> row(static_cast<std::size_t>(cols));
  for (float& x : row) x = static_cast<float>(rng.normal());
  return row;
}

/// A pair of vertices with no live edge between them in the current
/// version (scanning deterministically from the given start id),
/// avoiding the listed vertices so disjoint pairs can be requested.
std::pair<VertexId, VertexId> absent_edge(const GraphVersion& version, VertexId u0 = 0,
                                          std::initializer_list<VertexId> avoid = {}) {
  const auto avoided = [&](VertexId x) {
    return std::find(avoid.begin(), avoid.end(), x) != avoid.end();
  };
  std::vector<VertexId> adjacency;
  for (VertexId u = u0; u < version.num_vertices(); ++u) {
    if (avoided(u)) continue;
    adjacency.clear();
    version.append_neighbors(u, adjacency);
    for (VertexId v = 0; v < version.num_vertices(); ++v) {
      if (v == u || avoided(v)) continue;
      if (!std::binary_search(adjacency.begin(), adjacency.end(), v)) return {u, v};
    }
  }
  throw std::logic_error("absent_edge: graph is complete");
}

/// Holds a StreamingGraph fold open at its off-lock park point — the
/// test seam between the merged-CSR build and the rebase critical
/// section.  start() launches compact() on a background thread and
/// returns once the fold is parked (cut taken, build done, rebase
/// pending, maintenance mutex RELEASED); finish() lands it.  The graph
/// must have something to fold before start(), or compact() no-ops
/// without ever reaching the park point.
class FoldPark {
 public:
  explicit FoldPark(StreamingGraph& graph) : graph_(graph) {
    graph_.set_fold_hook([this] {
      std::unique_lock lock(mutex_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    });
  }

  ~FoldPark() {
    if (thread_.joinable()) finish();
    graph_.set_fold_hook(nullptr);
  }

  void start() {
    thread_ = std::thread([this] { result_ = graph_.compact(); });
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return parked_; });
  }

  bool finish() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
    thread_.join();
    return result_;
  }

 private:
  StreamingGraph& graph_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
  bool result_ = false;
  std::thread thread_;
};

// ------------------------------------------------------------ annihilation

TEST(Annihilation, CancelsMatchedPairsWithoutRebuild) {
  StreamingGraph graph(community());
  const EdgeId base_edges = graph.current()->num_edges();
  const auto [u, v] = absent_edge(*graph.current());

  ASSERT_TRUE(graph.add_edge(u, v));
  ASSERT_TRUE(graph.remove_edge(u, v));
  EXPECT_EQ(graph.overlay_ops(), 4);  // symmetric: 2 inserts + 2 tombstones

  EXPECT_EQ(graph.annihilate(), 4);
  EXPECT_EQ(graph.overlay_ops(), 0);
  const StreamStats stats = graph.stats();
  EXPECT_EQ(stats.annihilations, 1);
  EXPECT_EQ(stats.annihilated_ops, 4);
  EXPECT_EQ(stats.compactions, 0);

  const auto version = graph.publish();
  EXPECT_EQ(version->num_edges(), base_edges);
  EXPECT_EQ(version->overlay_edges(), 0);
  EXPECT_TRUE(version->validate());
}

TEST(Annihilation, KeepsUnmatchedSuffixOps) {
  StreamingGraph graph(community());
  const EdgeId base_edges = graph.current()->num_edges();
  const auto [u1, v1] = absent_edge(*graph.current());
  // A second absent pair disjoint from the first.
  const auto [u2, v2] = absent_edge(*graph.current(), u1 + 1, {u1, v1});

  ASSERT_TRUE(graph.add_edge(u1, v1));  // survives
  ASSERT_TRUE(graph.add_edge(u2, v2));  // cancelled below
  ASSERT_TRUE(graph.remove_edge(u2, v2));

  EXPECT_EQ(graph.annihilate(), 4);
  EXPECT_EQ(graph.overlay_ops(), 2);  // the surviving insert pair

  const auto version = graph.publish();
  EXPECT_EQ(version->num_edges(), base_edges + 2);
  std::vector<VertexId> adjacency;
  version->append_neighbors(u1, adjacency);
  EXPECT_TRUE(std::binary_search(adjacency.begin(), adjacency.end(), v1));
  adjacency.clear();
  version->append_neighbors(u2, adjacency);
  EXPECT_FALSE(std::binary_search(adjacency.begin(), adjacency.end(), v2));
  EXPECT_TRUE(version->validate());
}

TEST(Annihilation, PairAcrossPublishStaysCorrectThroughCompaction) {
  // Publish-only snapshots own copies of their spans, so a pair whose
  // insert was captured by a PUBLISH (not a fold cut) is still
  // erasable: the old version keeps serving the edge, and the next
  // publish/compaction sees the correct net absence.
  StreamingGraph graph(community());
  const EdgeId base_edges = graph.current()->num_edges();
  const auto [u, v] = absent_edge(*graph.current());

  ASSERT_TRUE(graph.add_edge(u, v));
  const auto with_edge = graph.publish();
  EXPECT_EQ(with_edge->num_edges(), base_edges + 2);
  ASSERT_TRUE(graph.remove_edge(u, v));

  EXPECT_EQ(graph.annihilate(), 4);
  EXPECT_EQ(graph.overlay_ops(), 0);
  // The already-published version is immutable and still serves the edge.
  EXPECT_EQ(with_edge->num_edges(), base_edges + 2);

  const auto version = graph.publish();
  EXPECT_EQ(version->num_edges(), base_edges);
  // The annihilation emptied the delta, so there may be nothing left
  // for the fold to merge — either way the folded view must agree.
  graph.compact();
  EXPECT_EQ(graph.current()->num_edges(), base_edges);
  std::vector<VertexId> adjacency;
  graph.current()->append_neighbors(u, adjacency);
  EXPECT_FALSE(std::binary_search(adjacency.begin(), adjacency.end(), v));
  EXPECT_TRUE(graph.current()->validate());
}

TEST(Annihilation, DeltaStoreErasesPairStraddlingPublishOnlySnapshot) {
  // The only annihilation gate is an in-flight fold's cut.  A
  // publish-only snapshot needs none: it owns an immutable overlay,
  // and the surviving ops re-reduce to the same net — so a pair whose
  // insert that snapshot captured is erased, and the next snapshot's
  // overlay is unchanged.
  auto base = std::make_shared<const CsrGraph>(
      build_csr(4, {{0, 1}, {1, 0}, {1, 2}, {2, 1}}, {}));
  DeltaStore store(base, 4);

  ASSERT_EQ(store.add_edge_pair(0, 3), 2);
  ASSERT_EQ(store.add_edge_pair(1, 3), 2);  // unmatched: must survive
  const DeltaStore::Snapshot published = store.snapshot(/*advance_epoch=*/true);
  EXPECT_EQ(published.num_inserts, 4);
  ASSERT_EQ(store.remove_edge_pair(0, 3), 2);
  const DeltaStore::Snapshot before = store.snapshot(/*advance_epoch=*/false);
  EXPECT_EQ(before.num_inserts, 2);
  EXPECT_EQ(before.num_removes, 0);

  EXPECT_EQ(store.annihilate(), 4);
  EXPECT_EQ(store.delta_removes(), 0);
  EXPECT_EQ(store.delta_edges(), 2);
  EXPECT_EQ(store.annihilated_ops(), 4);

  const DeltaStore::Snapshot after = store.snapshot(/*advance_epoch=*/false);
  EXPECT_EQ(after.overlay->touched, before.overlay->touched);
  EXPECT_EQ(after.overlay->insert_offsets, before.overlay->insert_offsets);
  EXPECT_EQ(after.overlay->inserts, before.overlay->inserts);
  EXPECT_EQ(after.overlay->remove_offsets, before.overlay->remove_offsets);
  EXPECT_EQ(after.overlay->removes, before.overlay->removes);
  EXPECT_EQ(after.num_inserts, 2);
  EXPECT_EQ(after.num_removes, 0);

  // The erased ops are gone from the logs, and re-reducing a vertex
  // from what survived agrees with the net it had.
  EXPECT_TRUE(store.pending_targets(0).empty());
  EXPECT_EQ(store.pending_targets(3), (std::vector<VertexId>{1}));
  ASSERT_EQ(store.add_edge_pair(2, 3), 2);
  const DeltaStore::Snapshot next = store.snapshot(/*advance_epoch=*/false);
  EXPECT_EQ(next.num_inserts, 4);
  EXPECT_EQ(next.num_removes, 0);
}

TEST(Annihilation, UnsnapshottedPairIsErasableAtDeltaStoreLevel) {
  auto base = std::make_shared<const CsrGraph>(build_csr(4, {{0, 1}, {1, 0}}, {}));
  DeltaStore store(base, 4);
  store.snapshot(/*advance_epoch=*/true);  // advance past construction epoch

  ASSERT_EQ(store.add_edge_pair(2, 3), 2);
  ASSERT_EQ(store.remove_edge_pair(2, 3), 2);
  ASSERT_EQ(store.add_edge_pair(0, 2), 2);  // unmatched: must survive
  EXPECT_EQ(store.annihilate(), 4);
  EXPECT_EQ(store.delta_ops(), 2);
  const DeltaStore::Snapshot snap = store.snapshot(/*advance_epoch=*/false);
  EXPECT_EQ(snap.num_inserts, 2);
  EXPECT_EQ(snap.num_removes, 0);
  EXPECT_EQ(store.annihilated_ops(), 4);
}

TEST(Annihilation, RandomizedChurnNeverDivergesFromNet) {
  // Property sweep: random insert/remove churn on a small pair pool
  // with annihilation and publishes interleaved — every published
  // version's edge count must equal base + net accepted ops, and a
  // final compaction must agree.
  StreamingGraph graph(community());
  const EdgeId base_edges = graph.current()->num_edges();
  Xoshiro256 rng(41);
  // Small pair pool so the same edges toggle repeatedly — the mix that
  // actually produces cancellable pairs.
  constexpr std::uint64_t kPool = 12;
  std::int64_t net_directed = 0;
  for (int step = 0; step < 400; ++step) {
    const auto u = static_cast<VertexId>(rng.bounded(kPool));
    const auto v = static_cast<VertexId>(rng.bounded(kPool));
    if (rng.uniform() < 0.5) {
      if (graph.add_edge(u, v)) net_directed += 2;
    } else {
      if (graph.remove_edge(u, v)) net_directed -= 2;
    }
    if (rng.uniform() < 0.15) graph.annihilate();
    if (rng.uniform() < 0.10) {
      EXPECT_EQ(graph.publish()->num_edges(), base_edges + net_directed) << "step " << step;
    }
  }
  graph.annihilate();
  graph.compact();
  EXPECT_EQ(graph.publish()->num_edges(), base_edges + net_directed);
  EXPECT_TRUE(graph.current()->validate());
  EXPECT_GT(graph.stats().annihilated_ops, 0);
}

// ------------------------------------------------------ non-blocking folds

TEST(NonBlockingFold, PublishProceedsWhileFoldParkedOffLock) {
  // The tentpole property: a publish issued while a fold's O(base)
  // build is in flight completes against the OLD base + full overlay —
  // it would deadlock here if the build still held the maintenance
  // mutex — and the landed rebase then folds the cut prefix into the
  // new base without losing the mid-build arrival.
  StreamingGraph graph(community());
  const EdgeId base_edges = graph.current()->num_edges();
  const auto [u1, v1] = absent_edge(*graph.current());
  ASSERT_TRUE(graph.add_edge(u1, v1));  // captured by the cut

  FoldPark park(graph);
  park.start();
  EXPECT_TRUE(graph.fold_in_flight());

  const auto [u2, v2] = absent_edge(*graph.current(), 0, {u1, v1});
  ASSERT_TRUE(graph.add_edge(u2, v2));  // lands mid-build, stamped past the cut
  const auto mid = graph.publish();
  EXPECT_EQ(mid->num_edges(), base_edges + 4);  // both pairs visible before the rebase
  EXPECT_TRUE(mid->validate());
  EXPECT_TRUE(graph.fold_in_flight());

  EXPECT_TRUE(park.finish());
  EXPECT_FALSE(graph.fold_in_flight());
  const auto after = graph.current();
  EXPECT_EQ(after->num_edges(), base_edges + 4);
  EXPECT_EQ(after->base_edges(), base_edges + 2);     // cut pair folded into the base
  EXPECT_EQ(after->overlay_edges(), 2);               // mid-build pair rides the overlay
  EXPECT_TRUE(after->validate());
  EXPECT_EQ(graph.stats().compactions, 1);
}

TEST(NonBlockingFold, SecondFoldRefusedNotBlockedWhileOneIsInFlight) {
  StreamingGraph graph(community());
  const auto [u, v] = absent_edge(*graph.current());
  ASSERT_TRUE(graph.add_edge(u, v));

  FoldPark park(graph);
  park.start();
  // Refused immediately — one fold frontier at a time; a blocking wait
  // here would deadlock the test.
  EXPECT_FALSE(graph.compact());
  EXPECT_TRUE(park.finish());
  EXPECT_EQ(graph.stats().compactions, 1);
  // With the fold landed (and the overlay drained) a fresh compact is a
  // clean no-op, not a refusal artifact.
  EXPECT_FALSE(graph.compact());
  EXPECT_TRUE(graph.current()->validate());
}

TEST(NonBlockingFold, AnnihilationDuringFoldSparesStraddlingPair) {
  // The pair whose insert the fold captured and whose tombstone landed
  // mid-build STRADDLES the cut: annihilation while the build is parked
  // must pin it (erasing it would resurrect the edge at rebase), while
  // a pair cancelled entirely after the cut is still erasable.
  StreamingGraph graph(community());
  const EdgeId base_edges = graph.current()->num_edges();
  const auto [u1, v1] = absent_edge(*graph.current());
  ASSERT_TRUE(graph.add_edge(u1, v1));  // insert: pre-cut

  FoldPark park(graph);
  park.start();
  ASSERT_TRUE(graph.remove_edge(u1, v1));  // tombstone: post-cut — straddles
  const auto [u2, v2] = absent_edge(*graph.current(), 0, {u1, v1});
  ASSERT_TRUE(graph.add_edge(u2, v2));  // cancelled pair entirely post-cut
  ASSERT_TRUE(graph.remove_edge(u2, v2));

  EXPECT_EQ(graph.annihilate(), 4);           // only the post-cut pair went
  EXPECT_EQ(graph.overlay_tombstones(), 2);   // straddling tombstones pinned
  EXPECT_TRUE(park.finish());

  // The rebase folded the captured insert into the base; the surviving
  // tombstones retract it, so the net graph is exactly the original.
  const auto version = graph.publish();
  EXPECT_EQ(version->num_edges(), base_edges);
  std::vector<VertexId> adjacency;
  version->append_neighbors(u1, adjacency);
  EXPECT_FALSE(std::binary_search(adjacency.begin(), adjacency.end(), v1));
  EXPECT_TRUE(version->validate());
  graph.compact();
  EXPECT_EQ(graph.current()->num_edges(), base_edges);
  EXPECT_TRUE(graph.current()->validate());
}

TEST(NonBlockingFold, DeltaStoreFoldGateClampsAnnihilationToTheCut) {
  // DeltaStore-level property: begin_fold pins ops at or below the cut
  // against annihilation, rebase re-validates the declared cut, and
  // abort_fold restores the full erasure license.
  auto base = std::make_shared<const CsrGraph>(build_csr(6, {{0, 1}, {1, 0}}, {}));
  DeltaStore store(base, 4);

  ASSERT_EQ(store.add_edge_pair(2, 3), 2);
  const DeltaStore::Snapshot cut = store.snapshot(/*advance_epoch=*/true);
  store.begin_fold(cut.epoch);
  EXPECT_TRUE(store.fold_in_flight());
  EXPECT_THROW(store.begin_fold(cut.epoch), std::logic_error);  // one fold at a time

  ASSERT_EQ(store.remove_edge_pair(2, 3), 2);  // straddles the cut with its insert
  ASSERT_EQ(store.add_edge_pair(4, 5), 2);     // cancelled entirely post-cut
  ASSERT_EQ(store.remove_edge_pair(4, 5), 2);

  // Every matched pair would be erasable; the in-flight fold keeps the
  // ops at or below its cut, so only the post-cut pairs (4 ops) go.
  EXPECT_EQ(store.annihilate(), 4);
  EXPECT_EQ(store.delta_removes(), 2);

  // The rebase must present the exact frontier begin_fold declared.
  auto merged = std::make_shared<const CsrGraph>(
      build_csr(6, {{0, 1}, {1, 0}, {2, 3}, {3, 2}}, {}));
  EXPECT_THROW(store.rebase(merged, cut.epoch + 1), std::logic_error);
  EXPECT_TRUE(store.fold_in_flight());  // failed re-validation keeps the guard
  store.rebase(merged, cut.epoch);
  EXPECT_FALSE(store.fold_in_flight());

  // The straddling tombstones survived to retract the folded edge.
  const DeltaStore::Snapshot after = store.snapshot(/*advance_epoch=*/false);
  EXPECT_EQ(after.num_removes, 2);
  EXPECT_EQ(after.num_inserts, 0);
}

TEST(NonBlockingFold, AbortFoldRestoresFullAnnihilationLicense) {
  auto base = std::make_shared<const CsrGraph>(build_csr(4, {{0, 1}, {1, 0}}, {}));
  DeltaStore store(base, 4);
  ASSERT_EQ(store.add_edge_pair(2, 3), 2);
  const DeltaStore::Snapshot cut = store.snapshot(/*advance_epoch=*/true);
  store.begin_fold(cut.epoch);
  ASSERT_EQ(store.remove_edge_pair(2, 3), 2);
  EXPECT_EQ(store.annihilate(), 0);  // straddles the in-flight cut
  store.abort_fold();
  EXPECT_FALSE(store.fold_in_flight());
  // Build abandoned: nothing was merged, so the matched pairs are free
  // again (no snapshot->rebase window remains).
  EXPECT_EQ(store.annihilate(), 4);
  EXPECT_EQ(store.delta_ops(), 0);
}

// ------------------------------------------------------------- TTL expiry

TEST(Expiry, SweepRetiresIdleStreamedEntitiesDeterministically) {
  StreamingGraph graph(community());
  const VertexId dataset_vertices = community().graph.num_vertices();
  Xoshiro256 rng(7);
  std::vector<VertexId> streamed;
  for (int i = 0; i < 5; ++i) {
    streamed.push_back(graph.add_vertex(random_row(rng, graph.features().cols())));
    ASSERT_TRUE(graph.add_edge(streamed.back(), static_cast<VertexId>(i)));
  }
  graph.publish();

  // ttl 0: everything idle at sweep time expires; dataset vertices are
  // never candidates.
  EXPECT_EQ(graph.sweep_expired(/*ttl=*/0.0, /*max_retire=*/64), 5);
  EXPECT_EQ(graph.stats().expired_vertices, 5);
  EXPECT_EQ(graph.stats().removed_vertices, 5);
  const auto version = graph.publish();
  for (VertexId v : streamed) {
    EXPECT_FALSE(version->alive(v)) << v;
    EXPECT_EQ(version->degree(v), 0) << v;
  }
  for (VertexId v = 0; v < dataset_vertices; ++v) ASSERT_TRUE(version->alive(v)) << v;
  // Nothing left to expire.
  EXPECT_EQ(graph.sweep_expired(0.0, 64), 0);
  EXPECT_TRUE(version->validate());
}

TEST(Expiry, TtlSparesRecentlyTouchedEntities) {
  StreamingGraph graph(community());
  Xoshiro256 rng(9);
  const VertexId stale = graph.add_vertex(random_row(rng, graph.features().cols()));
  const VertexId fresh = graph.add_vertex(random_row(rng, graph.features().cols()));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Touch one entity; the 30 ms TTL now separates the two.
  ASSERT_TRUE(graph.update_feature(fresh, random_row(rng, graph.features().cols())));
  EXPECT_EQ(graph.sweep_expired(/*ttl=*/0.030, /*max_retire=*/64), 1);
  const auto version = graph.publish();
  EXPECT_FALSE(version->alive(stale));
  EXPECT_TRUE(version->alive(fresh));
}

TEST(Expiry, MaxRetirePerSweepPacesTombstoneBursts) {
  StreamingGraph graph(community());
  Xoshiro256 rng(11);
  std::vector<VertexId> streamed;
  for (int i = 0; i < 10; ++i) {
    streamed.push_back(graph.add_vertex(random_row(rng, graph.features().cols())));
  }
  // Ascending-id scan: each capped sweep retires the lowest eligible
  // ids, so the schedule is deterministic.
  EXPECT_EQ(graph.sweep_expired(0.0, 4), 4);
  EXPECT_EQ(graph.sweep_expired(0.0, 4), 4);
  EXPECT_EQ(graph.sweep_expired(0.0, 4), 2);
  EXPECT_EQ(graph.sweep_expired(0.0, 4), 0);
  EXPECT_EQ(graph.stats().expired_vertices, 10);
  const auto version = graph.publish();
  for (VertexId v : streamed) EXPECT_FALSE(version->alive(v)) << v;
}

TEST(Expiry, PassYieldsWhileAFoldIsInFlightAndResumesAfterTheRebase) {
  // A pass stops at the first candidate it reaches while a fold is in
  // flight; the rebase clears the flag, and the next pass retires every
  // idle vertex — pending ops alone never hold a pass back.
  StreamingGraph graph(community());
  Xoshiro256 rng(13);
  for (int i = 0; i < 4; ++i) graph.add_vertex(random_row(rng, graph.features().cols()));
  const auto [u, v] = absent_edge(*graph.current());
  ASSERT_TRUE(graph.add_edge(u, v));  // something for the fold to merge

  FoldPark park(graph);
  park.start();
  EXPECT_EQ(graph.sweep_expired(0.0, 64), 0);
  EXPECT_EQ(graph.stats().expired_vertices, 0);
  EXPECT_TRUE(park.finish());
  EXPECT_FALSE(graph.fold_in_flight());
  EXPECT_EQ(graph.sweep_expired(0.0, 64), 4);
  EXPECT_EQ(graph.stats().expired_vertices, 4);
}

TEST(ExpirySweeper, BackgroundSweepRetiresIdleEntities) {
  StreamingGraph graph(community());
  Xoshiro256 rng(15);
  std::vector<VertexId> streamed;
  for (int i = 0; i < 4; ++i) {
    streamed.push_back(graph.add_vertex(random_row(rng, graph.features().cols())));
  }
  ExpiryPolicy policy;
  policy.ttl = 0.0;
  policy.sweep_interval = 1e-3;
  policy.max_retire_per_sweep = 2;
  ExpirySweeper sweeper(graph, policy);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (graph.stats().expired_vertices < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sweeper.stop();
  EXPECT_EQ(graph.stats().expired_vertices, 4);
  EXPECT_EQ(sweeper.retired(), 4);
  EXPECT_GE(sweeper.sweeps(), 2);  // max_retire_per_sweep forces at least two passes
  const auto version = graph.publish();
  for (VertexId v : streamed) EXPECT_FALSE(version->alive(v)) << v;
}

// Ingest has stopped with the overlay under the fold trigger, so the
// compactor has no reason to fold.  Sweeps must still retire every idle
// vertex: a pass yields only to a fold in flight, never to pending ops.
TEST(ExpirySweeper, RetiresIdleEntitiesWhileTheOverlaySitsBelowTheFoldTrigger) {
  StreamingGraph graph(community());
  Xoshiro256 rng(17);
  std::vector<VertexId> streamed;
  for (int i = 0; i < 4; ++i) {
    streamed.push_back(graph.add_vertex(random_row(rng, graph.features().cols())));
  }
  // 5 new edges on the streamed vertices: 10 pending ops, none of them
  // annihilable, under the trigger (16).
  for (VertexId v = 0; v < 5; ++v) ASSERT_TRUE(graph.add_edge(streamed[v % 4], v));
  CompactionPolicy compaction;
  compaction.max_overlay_edges = 16;
  Compactor compactor(graph, compaction);
  ExpiryPolicy policy;
  policy.ttl = 0.0;
  policy.sweep_interval = 1e-3;
  ExpirySweeper sweeper(graph, policy);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (graph.stats().expired_vertices < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sweeper.stop();
  compactor.stop();
  EXPECT_EQ(graph.stats().expired_vertices, 4);
}

TEST(ExpirySweeper, RejectsUnusablePolicies) {
  StreamingGraph graph(community());
  ExpiryPolicy disabled;  // default ttl < 0
  EXPECT_THROW(ExpirySweeper(graph, disabled), std::invalid_argument);
  ExpiryPolicy bad_interval;
  bad_interval.ttl = 0.010;
  bad_interval.sweep_interval = 0.0;
  EXPECT_THROW(ExpirySweeper(graph, bad_interval), std::invalid_argument);
}

TEST(Expiry, ExplicitTouchKeepsEntityAliveLikeAnLruRead) {
  // MutableFeatureStore::touch is the read-path hook for LRU-style
  // policies: refreshing the stamp without writing spares the entity.
  StreamingGraph graph(community());
  Xoshiro256 rng(21);
  const VertexId stale = graph.add_vertex(random_row(rng, graph.features().cols()));
  const VertexId read = graph.add_vertex(random_row(rng, graph.features().cols()));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  graph.features().touch(read);
  EXPECT_EQ(graph.sweep_expired(/*ttl=*/0.030, /*max_retire=*/64), 1);
  const auto version = graph.publish();
  EXPECT_FALSE(version->alive(stale));
  EXPECT_TRUE(version->alive(read));
}

TEST(Expiry, GatherTouchKeepsReadHotVertexAliveAcrossSweep) {
  // The serving read path: a streamed-in entity that is GATHERED every
  // request but never re-written must survive TTL sweeps — gather()
  // batch-refreshes last-touch stamps (true LRU), so only the genuinely
  // idle entity is retired.
  StreamingGraph graph(community());
  Xoshiro256 rng(25);
  const VertexId idle = graph.add_vertex(random_row(rng, graph.features().cols()));
  const VertexId hot = graph.add_vertex(random_row(rng, graph.features().cols()));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Read-only access, as a serving worker would issue it; the dataset
  // vertex in the batch exercises the base-row skip.
  Tensor out;
  const VertexId ids[2] = {0, hot};
  graph.gather(std::span<const VertexId>(ids, 2), out);

  EXPECT_EQ(graph.sweep_expired(/*ttl=*/0.030, /*max_retire=*/64), 1);
  const auto version = graph.publish();
  EXPECT_FALSE(version->alive(idle));
  EXPECT_TRUE(version->alive(hot));
  // The gather did not disturb the dataset vertex either way — base
  // rows are never TTL candidates.
  EXPECT_TRUE(version->alive(0));
}

TEST(Expiry, RecycledEntityGetsFreshTtl) {
  // An id recycled through add_vertex must not inherit the retired
  // entity's last-touch stamp: reuse_row re-stamps it.
  StreamingGraph graph(community());
  Xoshiro256 rng(17);
  const VertexId v = graph.add_vertex(random_row(rng, graph.features().cols()));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_EQ(graph.sweep_expired(/*ttl=*/0.020, /*max_retire=*/64), 1);
  ASSERT_TRUE(graph.compact());  // fold the death so the id recycles
  const VertexId reused = graph.add_vertex(random_row(rng, graph.features().cols()));
  EXPECT_EQ(reused, v);
  // Fresh stamp: a sweep at the same TTL spares the recycled entity.
  EXPECT_EQ(graph.sweep_expired(/*ttl=*/0.020, /*max_retire=*/64), 0);
  EXPECT_TRUE(graph.publish()->alive(reused));
}

// ---------------------------------------------------------- SLO publisher

TEST(Publisher, MakesIngestVisibleWithinBudgetWithoutCallerPublishes) {
  StreamingGraph graph(community());
  const std::uint64_t version_before = graph.current()->id();
  const EdgeId edges_before = graph.current()->num_edges();
  PublisherPolicy policy;
  policy.staleness_budget = 2e-3;
  Publisher publisher(graph, policy);

  const auto [u, v] = absent_edge(*graph.current());
  ASSERT_TRUE(graph.add_edge(u, v));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (graph.current()->num_edges() == edges_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  publisher.stop();
  EXPECT_EQ(graph.current()->num_edges(), edges_before + 2);
  EXPECT_GT(graph.current()->id(), version_before);
  EXPECT_GE(publisher.publishes(), 1);
  EXPECT_GT(publisher.worst_staleness(), 0.0);
  EXPECT_EQ(graph.pending_staleness(), 0.0);
}

TEST(Publisher, MakesIngestVisibleWhileAFoldIsParked) {
  // The streaming SLO's precondition: the background publisher never
  // waits on a fold's O(base) build.  With a fold parked off-lock, an
  // edge ingested mid-fold must become visible through the publisher
  // alone while the fold is still in flight.  A publish that serialized
  // behind the build would leave it invisible past the deadline; the
  // checks run before finish(), so that regression fails rather than
  // hangs.
  StreamingGraph graph(community());
  const EdgeId base_edges = graph.current()->num_edges();
  const auto [u1, v1] = absent_edge(*graph.current());
  ASSERT_TRUE(graph.add_edge(u1, v1));  // gives the fold a cut to build

  FoldPark park(graph);
  park.start();
  PublisherPolicy policy;
  policy.staleness_budget = 2e-3;
  Publisher publisher(graph, policy);

  const auto [u2, v2] = absent_edge(*graph.current(), 0, {u1, v1});
  ASSERT_TRUE(graph.add_edge(u2, v2));  // lands mid-build
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (graph.current()->num_edges() != base_edges + 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(graph.current()->num_edges(), base_edges + 4);
  EXPECT_TRUE(graph.fold_in_flight());
  EXPECT_GE(publisher.publishes(), 1);

  EXPECT_TRUE(park.finish());
  publisher.stop();
  EXPECT_EQ(graph.current()->num_edges(), base_edges + 4);
  EXPECT_TRUE(graph.current()->validate());
}

TEST(Publisher, IdlesWhenNothingIsPending) {
  StreamingGraph graph(community());
  PublisherPolicy policy;
  policy.staleness_budget = 1e-3;
  Publisher publisher(graph, policy);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  publisher.stop();
  // Never publishes empty versions — a quiet graph keeps its version.
  EXPECT_EQ(publisher.publishes(), 0);
  EXPECT_EQ(graph.stats().publishes, 0);
}

TEST(Publisher, SlowPublishCountsAsBreachAtCompletion) {
  // Staleness is about VISIBILITY: an op accepted just before a publish
  // STARTS has near-zero age then, but if the publish itself takes 4x
  // the budget the op was invisible 4x the budget — that must be
  // recorded as the staleness and counted as a breach.  (The pre-fix
  // accounting sampled age before publish() and would report ~0 here.)
  StreamingGraph graph(community());
  PublisherPolicy policy;
  policy.staleness_budget = 5e-3;
  constexpr auto kStall = std::chrono::milliseconds(20);
  graph.set_publish_hook([kStall] { std::this_thread::sleep_for(kStall); });
  Publisher publisher(graph, policy);

  const auto [u, v] = absent_edge(*graph.current());
  ASSERT_TRUE(graph.add_edge(u, v));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (publisher.publishes() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  publisher.stop();
  graph.set_publish_hook(nullptr);

  ASSERT_GE(publisher.publishes(), 1);
  EXPECT_GE(publisher.breaches(), 1);
  // Completion-time staleness includes the full publish cost.
  EXPECT_GE(publisher.worst_staleness(),
            std::chrono::duration<double>(kStall).count());
}

TEST(Publisher, RejectsUnusablePolicies) {
  StreamingGraph graph(community());
  PublisherPolicy disabled;
  disabled.staleness_budget = 0.0;
  EXPECT_THROW(Publisher(graph, disabled), std::invalid_argument);
}

TEST(Publisher, DrivesGeneratorVisibilityAsTheDefault) {
  // publish_every = 0 (the new default): mid-run visibility comes from
  // the background publisher alone; run() adds only the final publish.
  StreamingGraph graph(community());
  PublisherPolicy policy;
  policy.staleness_budget = 2e-3;
  Publisher publisher(graph, policy);

  UpdateGeneratorConfig config;
  config.operations = 200;
  config.seed = 3;
  config.pacing = 2e-4;  // ~40 ms of ingest: many budget windows
  EXPECT_EQ(config.publish_every, 0);  // SLO publishing is the default
  UpdateGenerator generator(graph, config);
  const UpdateReport report = generator.run();
  publisher.stop();

  EXPECT_GT(publisher.publishes(), 0);
  EXPECT_GT(report.accepted_edges, 0);
  // Everything accepted is visible and exact after the final publish.
  EXPECT_EQ(graph.current()->num_edges(),
            community().graph.num_edges() + graph.stats().ingested_edges -
                graph.stats().removed_edges);
  EXPECT_TRUE(graph.current()->validate());
}

// ------------------------------------------------- compactor + generator

TEST(Compactor, AnnihilationResolvesCancelledChurnWithoutRebuild) {
  StreamingGraph graph(community());
  CompactionPolicy policy;
  policy.max_overlay_edges = 256;
  policy.max_overlay_ratio = 1e9;
  Compactor compactor(graph, policy);
  compactor.stop();  // park the thread; drive decide() deterministically by hand

  const auto [u, v] = absent_edge(*graph.current());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(graph.add_edge(u, v));
    ASSERT_TRUE(graph.remove_edge(u, v));
  }
  EXPECT_EQ(graph.overlay_ops(), 400);
  EXPECT_EQ(compactor.decide(), Compactor::Maintenance::kAnnihilate);
  EXPECT_TRUE(compactor.should_compact());

  EXPECT_EQ(graph.annihilate(), 400);
  EXPECT_EQ(compactor.decide(), Compactor::Maintenance::kNone);
  EXPECT_EQ(graph.stats().compactions, 0);  // the rebuild never happened
  EXPECT_EQ(graph.publish()->num_edges(), community().graph.num_edges());
}

TEST(Compactor, InsertOnlyOverlayGoesStraightToFold) {
  // No tombstones -> nothing cancellable: an insert-only overlay skips
  // the no-op annihilation pass.
  StreamingGraph graph(community());
  CompactionPolicy policy;
  policy.max_overlay_edges = 8;
  policy.max_overlay_ratio = 1e9;
  Compactor compactor(graph, policy);
  compactor.stop();  // decide() only
  const VertexId n = graph.num_vertices();
  for (VertexId u = 0; u < n && graph.overlay_ops() < policy.max_overlay_edges; ++u) {
    for (VertexId v = u + 1; v < n && graph.overlay_ops() < policy.max_overlay_edges; ++v) {
      graph.add_edge(u, v);  // already-live pairs are rejected, the rest pile up pending
    }
  }
  ASSERT_GE(graph.overlay_ops(), policy.max_overlay_edges);
  ASSERT_EQ(graph.overlay_tombstones(), 0);
  EXPECT_EQ(compactor.decide(), Compactor::Maintenance::kFold);
}

TEST(Compactor, BackgroundAnnihilationKeepsOverlayBoundedUnderCancelledChurn) {
  StreamingGraph graph(community());
  CompactionPolicy policy;
  policy.max_overlay_edges = 64;
  policy.max_overlay_ratio = 1e9;
  policy.poll_interval = 5e-4;
  Compactor compactor(graph, policy);

  const auto [u, v] = absent_edge(*graph.current());
  for (int i = 0; i < 400; ++i) {
    // Each iteration nets zero; annihilation (not rebuilds) must keep
    // draining the buffers.
    if (graph.add_edge(u, v)) graph.remove_edge(u, v);
    if (i % 8 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (graph.overlay_ops() >= policy.max_overlay_edges &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  compactor.stop();
  EXPECT_LT(graph.overlay_ops(), policy.max_overlay_edges);
  EXPECT_GT(graph.stats().annihilated_ops, 0);
  EXPECT_GE(compactor.annihilation_passes(), 1);
  EXPECT_EQ(graph.publish()->num_edges(), community().graph.num_edges());
  EXPECT_TRUE(graph.current()->validate());
}

TEST(Compactor, DecideNeverDemandsSecondFoldWhileOneIsInFlight) {
  // With a fold parked mid-build, pressure that would normally demand
  // kFold must not: a second fold would only be refused (spurious
  // refused_folds + backoff growth).  The gated annihilation pass is
  // still offered when there is something it could cancel.
  StreamingGraph graph(community());
  CompactionPolicy policy;
  policy.max_overlay_edges = 2;
  policy.max_overlay_ratio = 1e9;
  Compactor compactor(graph, policy);
  compactor.stop();  // decide() only

  // Insert-only overlay over the trigger: nothing to cancel, so kFold.
  const auto [u1, v1] = absent_edge(*graph.current());
  ASSERT_TRUE(graph.add_edge(u1, v1));
  ASSERT_GE(graph.overlay_ops(), policy.max_overlay_edges);
  ASSERT_EQ(graph.overlay_tombstones(), 0);
  EXPECT_EQ(compactor.decide(), Compactor::Maintenance::kFold);

  FoldPark park(graph);
  park.start();
  EXPECT_EQ(compactor.decide(), Compactor::Maintenance::kNone);  // fold already running

  // Tombstones pending mid-build: the (cut-gated) in-place pass is
  // still offered.
  ASSERT_TRUE(graph.remove_edge(u1, v1));
  EXPECT_EQ(compactor.decide(), Compactor::Maintenance::kAnnihilate);

  EXPECT_TRUE(park.finish());
  EXPECT_EQ(graph.stats().compactions, 1);
}

TEST(Compactor, BackoffScheduleDoublesToCapAndValidates) {
  CompactionPolicy policy;
  policy.poll_interval = 2e-3;
  policy.max_backoff = 10e-3;
  Seconds backoff = 0.0;
  backoff = Compactor::next_backoff(backoff, policy);
  EXPECT_DOUBLE_EQ(backoff, 2e-3);  // first refusal: one extra poll tick
  backoff = Compactor::next_backoff(backoff, policy);
  EXPECT_DOUBLE_EQ(backoff, 4e-3);
  backoff = Compactor::next_backoff(backoff, policy);
  EXPECT_DOUBLE_EQ(backoff, 8e-3);
  backoff = Compactor::next_backoff(backoff, policy);
  EXPECT_DOUBLE_EQ(backoff, 10e-3);  // capped
  backoff = Compactor::next_backoff(backoff, policy);
  EXPECT_DOUBLE_EQ(backoff, 10e-3);

  StreamingGraph graph(community());
  CompactionPolicy bad;
  bad.max_backoff = -1.0;
  EXPECT_THROW(Compactor(graph, bad), std::invalid_argument);
}

TEST(UpdateGenerator, RejectionStormCannotStarveFixedCadencePublishing) {
  // Adversarial mix: a complete graph rejects every insert (duplicate)
  // — if the cadence counted ACCEPTED ops only, publishing would
  // starve forever.  It counts attempted ops, so every boundary fires.
  Dataset ds;
  std::vector<std::pair<VertexId, VertexId>> edges;
  const VertexId k = 12;
  for (VertexId a = 0; a < k; ++a) {
    for (VertexId b = a + 1; b < k; ++b) edges.emplace_back(a, b);
  }
  ds.graph = build_csr(k, std::move(edges));
  ds.features.resize(k, 4);
  ds.labels.assign(static_cast<std::size_t>(k), 0);
  ds.info.name = "complete-graph";
  ds.info.num_vertices = k;
  ds.info.num_edges = static_cast<std::uint64_t>(ds.graph.num_edges());
  StreamingGraph graph(ds);

  UpdateGeneratorConfig config;
  config.operations = 64;
  config.publish_every = 8;
  config.vertex_add_fraction = 0.0;
  config.feature_update_fraction = 0.0;
  config.seed = 19;
  UpdateGenerator generator(graph, config);
  const UpdateReport report = generator.run();

  EXPECT_EQ(report.accepted_edges, 0);
  EXPECT_EQ(report.duplicate_edges, 64);
  // 64/8 cadence publishes plus the final one.
  EXPECT_EQ(report.publishes, 9);
}

TEST(UpdateGenerator, RecentDeleteChurnProducesAnnihilatableOps) {
  // delete_recent_fraction makes the feed cancel its own writes — the
  // insert/tombstone-pair pattern annihilation erases without a
  // rebuild — while staying exactly countable.
  StreamingGraph graph(community());
  UpdateGeneratorConfig config;
  config.operations = 300;
  config.edge_delete_fraction = 0.45;
  config.delete_recent_fraction = 1.0;
  config.vertex_add_fraction = 0.0;
  config.feature_update_fraction = 0.0;
  config.seed = 29;
  UpdateGenerator generator(graph, config);
  const UpdateReport report = generator.run();

  EXPECT_GT(report.removed_edges, 0);
  EXPECT_GT(graph.annihilate(), 0);
  // Annihilation never changes the net: accepted counters still
  // reconcile exactly against the published edge count.
  const StreamStats stats = graph.stats();
  EXPECT_EQ(graph.publish()->num_edges(),
            community().graph.num_edges() + stats.ingested_edges - stats.removed_edges);
  EXPECT_TRUE(graph.current()->validate());

  UpdateGeneratorConfig bad;
  bad.delete_recent_fraction = 1.5;
  EXPECT_THROW(UpdateGenerator(graph, bad), std::invalid_argument);
}

// -------------------------------------------------------- session facade

TEST(ServingSession, LifecycleThreadsServeChurnEndToEnd) {
  const Dataset& ds = community();
  HybridTrainerConfig train_config;
  train_config.fanouts = {4, 4};
  train_config.real_batch_total = 64;
  train_config.real_iterations_cap = 1;
  HyScale system(ds, cpu_fpga_platform(2), train_config);
  system.train_epoch();

  ServingConfig serving;
  serving.fanouts = {4, 4};
  serving.num_workers = 2;
  CompactionPolicy compaction;
  compaction.max_overlay_edges = 128;
  PublisherPolicy publisher;
  publisher.staleness_budget = 2e-3;
  ExpiryPolicy expiry;
  expiry.ttl = 0.020;
  expiry.sweep_interval = 2e-3;
  ServingSession session = system.stream(serving, {}, compaction, publisher, expiry);
  ASSERT_NE(session.publisher(), nullptr);
  ASSERT_NE(session.sweeper, nullptr);

  UpdateGeneratorConfig updates;
  updates.operations = 200;
  updates.vertex_add_fraction = 0.25;  // feed entities for the TTL sweep to retire
  updates.edge_delete_fraction = 0.20;
  updates.pacing = 2e-4;
  UpdateGenerator update_generator(session.stream(), updates);
  UpdateReport update_report;
  std::thread update_thread([&] { update_report = update_generator.run(); });

  LoadGeneratorConfig load;
  load.num_clients = 2;
  load.requests_per_client = 20;
  load.seeds_per_request = 2;
  LoadGenerator generator(*session.server, ds, load);
  const LoadReport report = generator.run();
  update_thread.join();

  // Let the sweeper catch the entities that outlived the generator.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (session.stream().stats().expired_vertices == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  EXPECT_EQ(report.completed_requests, 40);
  EXPECT_GT(update_report.accepted_edges, 0);
  EXPECT_GT(session.publisher()->publishes(), 0);
  EXPECT_GT(session.stream().stats().expired_vertices, 0);
  EXPECT_GT(session.server->last_served_version(), 0u);
  EXPECT_TRUE(session.stream().current()->validate());
}

}  // namespace
}  // namespace hyscale
