// Tests for the streaming dynamic-graph subsystem (src/stream/):
// delta-store epoch stamping and duplicate rejection, incremental
// snapshots against a full reduction, the version slot table, rejection
// of an unsorted base, copy-on-publish version linearizability under
// concurrent ingest AND retraction,
// overlay-sampler distribution vs. a rebuilt CSR, tombstone edge cases
// (double delete, delete-pending, delete-then-reinsert across a
// compaction boundary, isolated vertices, vertex retirement + id
// recycling), compaction exactness for unchanged vertices,
// cache-invalidation/eviction freshness, and the queue-wait/compute
// split in ServingStats.  The randomized stream-vs-rebuild harness
// lives in test_stream_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/hyscale.hpp"

namespace hyscale {
namespace {

std::shared_ptr<const CsrGraph> shared_csr(VertexId n,
                                           std::vector<std::pair<VertexId, VertexId>> edges,
                                           const EdgeListOptions& options = {}) {
  return std::make_shared<const CsrGraph>(build_csr(n, std::move(edges), options));
}

ModelConfig small_model_config() {
  ModelConfig config;
  config.kind = GnnKind::kSage;
  config.dims = {8, 16, 3};
  config.seed = 11;
  return config;
}

/// Two disjoint rings (0..19 and 20..39) so updates confined to one
/// component provably leave the other's L-hop neighborhoods unchanged.
Dataset two_component_dataset() {
  Dataset ds;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 20; ++v) edges.emplace_back(v, (v + 1) % 20);
  for (VertexId v = 0; v < 20; ++v) edges.emplace_back(20 + v, 20 + (v + 1) % 20);
  ds.graph = build_csr(40, std::move(edges));
  ds.features.resize(40, 8);
  Xoshiro256 rng(99);
  for (float& x : ds.features.flat()) x = static_cast<float>(rng.normal());
  ds.labels.assign(40, 0);
  for (VertexId v = 20; v < 40; ++v) ds.labels[static_cast<std::size_t>(v)] = 1;
  for (VertexId v = 0; v < 40; ++v) ds.train_ids.push_back(v);
  ds.info.name = "two-component";
  ds.info.num_vertices = 40;
  ds.info.num_edges = static_cast<std::uint64_t>(ds.graph.num_edges());
  ds.info.f0 = 8;
  ds.info.f2 = 3;
  return ds;
}

const Dataset& community() {
  static const Dataset ds = make_community_dataset(3, 32, 8, 2);
  return ds;
}

// -------------------------------------------------------------- DeltaStore

TEST(DeltaStore, RejectsSelfLoopsAndDuplicates) {
  auto base = shared_csr(4, {{0, 1}});  // symmetrized: 0-1
  DeltaStore store(base);
  EXPECT_EQ(store.add_edge_pair(2, 2), 0);  // self loop
  EXPECT_EQ(store.add_edge_pair(0, 1), 0);  // already in base
  EXPECT_EQ(store.add_edge_pair(1, 0), 0);  // ...in either orientation
  EXPECT_EQ(store.add_edge_pair(0, 2), 2);  // both directions land
  EXPECT_EQ(store.add_edge_pair(2, 0), 0);  // already pending
  EXPECT_EQ(store.delta_edges(), 2);
  EXPECT_THROW(store.add_edge_pair(0, 99), std::invalid_argument);
}

TEST(DeltaStore, EpochStampedSnapshotAndPrefixTruncate) {
  auto base = shared_csr(6, {});
  DeltaStore store(base);
  ASSERT_EQ(store.add_edge_pair(0, 1), 2);
  ASSERT_EQ(store.add_edge_pair(0, 2), 2);
  const DeltaStore::Snapshot first = store.snapshot(/*advance_epoch=*/true);
  EXPECT_EQ(first.num_inserts, 4);
  EXPECT_EQ(first.num_removes, 0);

  // Edges after the cut carry the advanced epoch and survive the
  // rebase's truncation of the folded prefix.
  ASSERT_EQ(store.add_edge_pair(0, 3), 2);
  ASSERT_EQ(store.add_edge_pair(4, 5), 2);
  store.rebase(shared_csr(6, {{0, 1}, {0, 2}}), first.epoch);
  EXPECT_EQ(store.delta_edges(), 4);
  const DeltaStore::Snapshot second = store.snapshot(false);
  std::vector<VertexId> remaining(second.overlay->inserts);
  std::sort(remaining.begin(), remaining.end());
  EXPECT_EQ(remaining, (std::vector<VertexId>{0, 3, 4, 5}));
}

TEST(DeltaStore, AddVerticesExtendsSpace) {
  auto base = shared_csr(3, {{0, 1}});
  DeltaStore store(base);
  const VertexId first = store.add_vertices(2);
  EXPECT_EQ(first, 3);
  EXPECT_EQ(store.num_vertices(), 5);
  EXPECT_EQ(store.add_edge_pair(4, 0), 2);  // new vertex can receive edges
}

TEST(DeltaStore, RebaseSwapsDuplicateCheckBaseAndTruncates) {
  auto base = shared_csr(4, {});
  DeltaStore store(base);
  ASSERT_EQ(store.add_edge_pair(0, 1), 2);
  const DeltaStore::Snapshot snap = store.snapshot(true);
  auto merged = shared_csr(4, {{0, 1}});
  store.rebase(merged, snap.epoch);
  EXPECT_EQ(store.delta_edges(), 0);
  EXPECT_EQ(store.add_edge_pair(0, 1), 0);  // now a duplicate of the NEW base
  EXPECT_EQ(store.base().get(), merged.get());
}

/// Net effect of v's pending ops over `base`: a verbatim copy of the
/// full-reduction loop DeltaStore::snapshot ran over every touched
/// vertex before its snapshots became incremental (sort the op targets,
/// keep odd-length runs, linear base membership).  The incremental
/// overlay must match it vertex for vertex.
struct FullReduction {
  std::vector<VertexId> inserts;
  std::vector<VertexId> removes;
};

FullReduction full_reduction(const CsrGraph& base, VertexId v, std::vector<VertexId> ops) {
  FullReduction net;
  std::sort(ops.begin(), ops.end());
  for (std::size_t i = 0; i < ops.size();) {
    std::size_t j = i;
    while (j < ops.size() && ops[j] == ops[i]) ++j;
    if (((j - i) & 1) != 0) {
      bool in_base = false;
      if (v < base.num_vertices()) {
        const auto neighbors = base.neighbors(v);
        in_base = std::find(neighbors.begin(), neighbors.end(), ops[i]) != neighbors.end();
      }
      (in_base ? net.removes : net.inserts).push_back(ops[i]);
    }
    i = j;
  }
  return net;
}

std::vector<VertexId> overlay_span(const std::vector<EdgeId>& offsets,
                                   const std::vector<VertexId>& items, std::size_t s) {
  return {items.begin() + offsets[s], items.begin() + offsets[s + 1]};
}

/// Checks `snap` (just taken from `store`) against the full reduction of
/// every vertex's current op log over the store's current base.
void expect_full_reduction(const DeltaStore& store, const DeltaStore::Snapshot& snap,
                           const std::string& where) {
  const CsrGraph& base = *store.base();
  const DeltaStore::Overlay& overlay = *snap.overlay;
  ASSERT_EQ(overlay.insert_offsets.size(), overlay.touched.size() + 1) << where;
  ASSERT_EQ(overlay.remove_offsets.size(), overlay.touched.size() + 1) << where;
  EdgeId raw_ops = 0;
  EdgeId inserts = 0;
  EdgeId removes = 0;
  std::size_t s = 0;
  for (VertexId v = 0; v < snap.num_vertices; ++v) {
    const std::vector<VertexId> ops = store.pending_targets(v);
    raw_ops += static_cast<EdgeId>(ops.size());
    const FullReduction expected = full_reduction(base, v, ops);
    inserts += static_cast<EdgeId>(expected.inserts.size());
    removes += static_cast<EdgeId>(expected.removes.size());
    if (expected.inserts.empty() && expected.removes.empty()) {
      if (s < overlay.touched.size())
        ASSERT_NE(overlay.touched[s], v) << where << ": vertex " << v << " has no net change";
      continue;
    }
    ASSERT_LT(s, overlay.touched.size()) << where << ": vertex " << v << " missing";
    ASSERT_EQ(overlay.touched[s], v) << where << ": touched out of order or missing " << v;
    EXPECT_EQ(overlay_span(overlay.insert_offsets, overlay.inserts, s), expected.inserts)
        << where << ": inserts of vertex " << v;
    EXPECT_EQ(overlay_span(overlay.remove_offsets, overlay.removes, s), expected.removes)
        << where << ": removes of vertex " << v;
    ++s;
  }
  EXPECT_EQ(s, overlay.touched.size()) << where << ": touched ids past the vertex space";
  EXPECT_EQ(snap.raw_ops, raw_ops) << where;
  EXPECT_EQ(snap.num_inserts, inserts) << where;
  EXPECT_EQ(snap.num_removes, removes) << where;
}

/// What compact() builds from a cut — base minus the cut's removals plus
/// its insertions — with the directed edge `moved`, if any, toggled as
/// well: a base change the cut did not cause.
std::shared_ptr<const CsrGraph> fold_cut(
    const CsrGraph& base, const DeltaStore::Snapshot& cut,
    std::optional<std::pair<VertexId, VertexId>> moved = std::nullopt) {
  const DeltaStore::Overlay& overlay = *cut.overlay;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    const auto at = std::lower_bound(overlay.touched.begin(), overlay.touched.end(), v);
    std::vector<VertexId> removed;
    if (at != overlay.touched.end() && *at == v)
      removed = overlay_span(overlay.remove_offsets, overlay.removes,
                             static_cast<std::size_t>(at - overlay.touched.begin()));
    for (VertexId u : base.neighbors(v)) {
      if (!std::binary_search(removed.begin(), removed.end(), u)) edges.emplace_back(v, u);
    }
  }
  for (std::size_t s = 0; s < overlay.touched.size(); ++s) {
    for (VertexId u : overlay_span(overlay.insert_offsets, overlay.inserts, s))
      edges.emplace_back(overlay.touched[s], u);
  }
  if (moved) {
    const auto at = std::find(edges.begin(), edges.end(), *moved);
    if (at == edges.end()) {
      edges.push_back(*moved);
    } else {
      edges.erase(at);
    }
  }
  EdgeListOptions options;
  options.symmetrize = false;
  options.remove_self_loops = false;
  return shared_csr(cut.num_vertices, std::move(edges), options);
}

TEST(DeltaStore, IncrementalSnapshotMatchesFullReduction) {
  // Two hubs (0 and 1) adjacent to most vertices plus a ring through
  // the leaves, so ops land on long and short base adjacencies alike.
  constexpr VertexId kBase = 48;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 2; v < kBase; ++v) {
    if (v % 3 != 0) edges.emplace_back(0, v);
    if (v % 2 == 0) edges.emplace_back(1, v);
    edges.emplace_back(v, v + 1 < kBase ? v + 1 : 2);
  }
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    DeltaStore store(shared_csr(kBase, edges), /*num_stripes=*/4);
    Xoshiro256 rng(seed);
    std::optional<DeltaStore::Snapshot> fold;  // the in-flight fold's cut
    std::optional<DeltaStore::Snapshot> latest;
    int snapshots = 0;
    const auto check = [&](const DeltaStore::Snapshot& snap) {
      expect_full_reduction(store, snap,
                            "seed " + std::to_string(seed) + " snapshot " +
                                std::to_string(snapshots++));
      latest = snap;
    };
    std::uint64_t until_snapshot = 1 + rng.bounded(4);
    for (int step = 0; step < 300 && !HasFatalFailure(); ++step) {
      const auto n = static_cast<std::uint64_t>(store.num_vertices());
      const auto endpoint = [&] {
        return static_cast<VertexId>(rng.uniform() < 0.3 ? rng.bounded(2) : rng.bounded(n));
      };
      const double r = rng.uniform();
      if (r < 0.55) {
        const VertexId u = endpoint();
        const VertexId v = endpoint();
        if (rng.uniform() < 0.55) {
          store.add_edge_pair(u, v);
        } else {
          store.remove_edge_pair(u, v);
        }
      } else if (r < 0.70) {
        // One pair toggled over and over: long alternating runs.
        if (store.add_edge_pair(0, 7) == 0) store.remove_edge_pair(0, 7);
      } else if (r < 0.74) {
        store.remove_vertex(static_cast<VertexId>(rng.bounded(n)));
      } else if (r < 0.77) {
        store.add_vertices(1);
      } else if (r < 0.84) {
        store.annihilate();  // keeps the ops at or below an in-flight cut
      } else if (r < 0.89) {
        if (!fold) {
          fold = store.snapshot(/*advance_epoch=*/true);
          check(*fold);
          store.begin_fold(fold->epoch);
        }
      } else if (r < 0.95) {
        if (fold) {
          if (rng.uniform() < 0.75) {
            // Most rebases also move one base edge, at a vertex the cut
            // left alone but the latest snapshot reduced: the store must
            // re-reduce against whatever base it installs.
            std::optional<std::pair<VertexId, VertexId>> moved;
            const std::vector<VertexId>& cut_touched = fold->overlay->touched;
            for (VertexId v : latest->overlay->touched) {
              if (rng.bounded(2) == 0 || v >= fold->num_vertices ||
                  std::binary_search(cut_touched.begin(), cut_touched.end(), v))
                continue;
              moved.emplace(v, v == 0 ? 1 : 0);
              break;
            }
            store.rebase(fold_cut(*store.base(), *fold, moved), fold->epoch);
          } else {
            store.abort_fold();
          }
          fold.reset();
        }
      } else if (!fold && store.epoch() > 1) {
        // A rebase that moves no base edge: drops a prefix only.
        store.rebase(store.base(), store.epoch() - 1);
      }
      if (--until_snapshot == 0) {
        check(store.snapshot(/*advance_epoch=*/rng.uniform() < 0.5));
        until_snapshot = 1 + rng.bounded(4);
      }
    }
    check(store.snapshot(/*advance_epoch=*/false));
  }
}

// ------------------------------------------------------------ GraphVersion

/// The slot table's home entry, copied from GraphVersion so the test
/// can pick ids that collide.
std::size_t slot_home(VertexId v, std::size_t capacity) {
  const auto shift = static_cast<unsigned>(64 - std::countr_zero(capacity));
  return static_cast<std::size_t>((static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ull) >>
                                  shift);
}

std::size_t slot_capacity(std::size_t touched) {
  return std::bit_ceil(std::max<std::size_t>(2, 2 * touched));
}

/// Every lookup of a version over a hand-built overlay on `touched`
/// (over a ring base) agrees with the overlay's own spans.
void expect_slot_table_matches(const std::vector<VertexId>& touched_ids,
                               const std::string& where) {
  constexpr VertexId kVertices = 4096;
  std::vector<std::pair<VertexId, VertexId>> ring;
  for (VertexId v = 0; v < kVertices; ++v) ring.emplace_back(v, (v + 1) % kVertices);
  const auto base = shared_csr(kVertices, ring);

  std::vector<VertexId> touched(touched_ids);
  std::sort(touched.begin(), touched.end());
  auto overlay = std::make_shared<DeltaStore::Overlay>();
  overlay->touched = touched;
  for (VertexId v : touched) {
    std::vector<VertexId> ins;
    for (VertexId k = 0; k <= v % 3; ++k) ins.push_back((v + 2 + k) % kVertices);
    std::sort(ins.begin(), ins.end());
    overlay->inserts.insert(overlay->inserts.end(), ins.begin(), ins.end());
    if (v % 2 == 0) overlay->removes.push_back((v + 1) % kVertices);
    overlay->insert_offsets.push_back(static_cast<EdgeId>(overlay->inserts.size()));
    overlay->remove_offsets.push_back(static_cast<EdgeId>(overlay->removes.size()));
  }
  DeltaStore::Snapshot snap;
  snap.num_vertices = kVertices;
  snap.num_inserts = static_cast<EdgeId>(overlay->inserts.size());
  snap.num_removes = static_cast<EdgeId>(overlay->removes.size());
  snap.overlay = overlay;
  snap.dead = std::make_shared<const std::vector<VertexId>>();
  const GraphVersion version(base, base->max_degree(), snap, 1);
  ASSERT_TRUE(version.validate()) << where;

  EdgeId max_degree = base->max_degree();
  for (VertexId v = 0; v < kVertices; ++v) {
    const auto at = std::lower_bound(touched.begin(), touched.end(), v);
    std::vector<VertexId> ins;
    std::vector<VertexId> rem;
    if (at != touched.end() && *at == v) {
      const auto s = static_cast<std::size_t>(at - touched.begin());
      ins = overlay_span(overlay->insert_offsets, overlay->inserts, s);
      rem = overlay_span(overlay->remove_offsets, overlay->removes, s);
    }
    const auto got_ins = version.inserted_neighbors(v);
    const auto got_rem = version.removed_neighbors(v);
    ASSERT_EQ(std::vector<VertexId>(got_ins.begin(), got_ins.end()), ins) << where << " v=" << v;
    ASSERT_EQ(std::vector<VertexId>(got_rem.begin(), got_rem.end()), rem) << where << " v=" << v;
    const EdgeId live = base->degree(v) - static_cast<EdgeId>(rem.size()) +
                        static_cast<EdgeId>(ins.size());
    ASSERT_EQ(version.degree(v), live) << where << " v=" << v;
    std::vector<VertexId> adjacency;
    version.append_neighbors(v, adjacency);
    ASSERT_EQ(static_cast<EdgeId>(adjacency.size()), live) << where << " v=" << v;
    ASSERT_TRUE(std::is_sorted(adjacency.begin(), adjacency.end())) << where << " v=" << v;
    max_degree = std::max(max_degree, live);
  }
  EXPECT_EQ(version.max_degree(), max_degree) << where;
}

TEST(GraphVersion, SlotTableMatchesOverlaySpans) {
  expect_slot_table_matches({}, "empty overlay");
  expect_slot_table_matches({2049}, "one touched vertex");
  // Sizes on both sides of the table's power-of-two growth points.
  Xoshiro256 rng(5);
  for (std::size_t count : {2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 256, 1000}) {
    std::vector<VertexId> ids;
    std::vector<char> taken(4096, 0);
    while (ids.size() < count) {
      const auto v = static_cast<VertexId>(rng.bounded(4096));
      if (taken[static_cast<std::size_t>(v)] == 0) {
        taken[static_cast<std::size_t>(v)] = 1;
        ids.push_back(v);
      }
    }
    expect_slot_table_matches(ids, "random " + std::to_string(count));
  }
  // Every id homed on one entry — the last one, so the probe sequence
  // wraps — or half of them on it and the rest spread.
  for (std::size_t count : {3, 16, 31}) {
    const std::size_t capacity = slot_capacity(count);
    std::vector<VertexId> colliding;
    std::vector<VertexId> spread;
    for (VertexId v = 0; v < 4096; ++v) {
      (slot_home(v, capacity) == capacity - 1 ? colliding : spread).push_back(v);
    }
    ASSERT_GE(colliding.size(), count);
    colliding.resize(count);
    expect_slot_table_matches(colliding, "colliding " + std::to_string(count));
    std::vector<VertexId> mixed(colliding.begin(), colliding.begin() + count / 2);
    for (std::size_t i = 0; mixed.size() < count; i += 7) mixed.push_back(spread[i]);
    expect_slot_table_matches(mixed, "half colliding " + std::to_string(count));
  }
}

TEST(StreamingGraph, RejectsUnsortedBaseAdjacencyNamingTheVertex) {
  // Vertices 1 and 3 list their neighbours out of order; the merge and
  // the store's binary-search membership would silently go wrong.
  Dataset ds;
  ds.graph = CsrGraph({0, 2, 4, 5, 7}, {1, 2, 3, 0, 0, 2, 1});
  ds.features.resize(4, 2);
  ds.labels.assign(4, 0);
  ds.info.num_vertices = 4;
  try {
    StreamingGraph graph(ds);
    FAIL() << "an unsorted base was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("vertex 1 "), std::string::npos) << error.what();
  }
  // The same graph with each list sorted is accepted.
  ds.graph = CsrGraph({0, 2, 4, 5, 7}, {1, 2, 0, 3, 0, 1, 2});
  EXPECT_NO_THROW(StreamingGraph graph(ds));
}

// ---------------------------------------------------------- StreamingGraph

TEST(StreamingGraph, PublishMakesIngestVisible) {
  StreamingGraph graph(community());
  const auto before = graph.current();
  VertexId u = 0, v = 0;
  // Find a non-edge to insert.
  for (v = 1; v < graph.num_vertices(); ++v) {
    const auto neighbors = before->base_neighbors(u);
    if (std::find(neighbors.begin(), neighbors.end(), v) == neighbors.end()) break;
  }
  ASSERT_TRUE(graph.add_edge(u, v));
  // Not visible until publish.
  EXPECT_EQ(graph.current()->overlay_edges(), 0);
  const auto after = graph.publish();
  EXPECT_EQ(after->overlay_edges(), 2);  // symmetric insert
  EXPECT_EQ(after->degree(u), before->degree(u) + 1);
  EXPECT_EQ(after->degree(v), before->degree(v) + 1);
  EXPECT_TRUE(after->validate());
  // The old version is an immutable snapshot.
  EXPECT_EQ(before->overlay_edges(), 0);
  EXPECT_GT(after->id(), before->id());
}

TEST(StreamingGraph, DuplicateInsertsAreRejectedSymmetrically) {
  StreamingGraph graph(two_component_dataset());
  ASSERT_TRUE(graph.add_edge(0, 5));
  EXPECT_FALSE(graph.add_edge(0, 5));
  EXPECT_FALSE(graph.add_edge(5, 0));  // canonical order catches the reverse
  EXPECT_FALSE(graph.add_edge(0, 1));  // base ring edge
  EXPECT_EQ(graph.stats().duplicate_edges, 3);
  EXPECT_EQ(graph.stats().ingested_edges, 2);
}

TEST(StreamingGraph, AddVertexCarriesFeaturesIntoPublishedVersion) {
  StreamingGraph graph(two_component_dataset());
  std::vector<float> row(8, 2.5f);
  const VertexId v = graph.add_vertex(row);
  EXPECT_EQ(v, 40);
  ASSERT_TRUE(graph.add_edge(v, 0));
  const auto version = graph.publish();
  EXPECT_EQ(version->num_vertices(), 41);
  EXPECT_EQ(version->degree(v), 1);
  Tensor out;
  const VertexId nodes[1] = {v};
  graph.gather(std::span<const VertexId>(nodes, 1), out);
  for (std::int64_t j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(out.at(0, j), 2.5f);
}

TEST(StreamingGraph, CompactFoldsOverlayIntoFreshBase) {
  const Dataset ds = two_component_dataset();
  StreamingGraph graph(ds);
  ASSERT_TRUE(graph.add_edge(0, 5));
  ASSERT_TRUE(graph.add_edge(3, 11));
  const auto overlay_version = graph.publish();
  ASSERT_EQ(overlay_version->overlay_edges(), 4);

  ASSERT_TRUE(graph.compact());
  const auto compacted = graph.current();
  EXPECT_EQ(compacted->overlay_edges(), 0);
  EXPECT_EQ(graph.overlay_edges(), 0);
  EXPECT_EQ(compacted->num_edges(), overlay_version->num_edges());
  EXPECT_TRUE(compacted->validate());

  // The merged base equals a one-shot build over the union edge list.
  std::vector<std::pair<VertexId, VertexId>> union_edges;
  for (VertexId v = 0; v < ds.graph.num_vertices(); ++v) {
    for (VertexId u : ds.graph.neighbors(v)) union_edges.emplace_back(v, u);
  }
  union_edges.emplace_back(0, 5);
  union_edges.emplace_back(5, 0);
  union_edges.emplace_back(3, 11);
  union_edges.emplace_back(11, 3);
  EdgeListOptions options;
  options.symmetrize = false;
  const CsrGraph rebuilt = build_csr(ds.graph.num_vertices(), std::move(union_edges), options);
  EXPECT_EQ(compacted->base().indptr(), rebuilt.indptr());
  EXPECT_EQ(compacted->base().indices(), rebuilt.indices());

  // Nothing left to merge.
  EXPECT_FALSE(graph.compact());
}

TEST(StreamingGraph, ConcurrentIngestAndQueryLinearizability) {
  StreamingGraph graph(community());
  const VertexId n = graph.num_vertices();
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> violations{0};

  // Readers: a snapshot must always be internally consistent (never a
  // half-published version) and version ids monotone per observer.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_id = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto version = graph.current();
        if (!version->validate()) violations.fetch_add(1);
        if (version->id() < last_id) violations.fetch_add(1);
        last_id = version->id();
        if (version->num_edges() != version->base_edges() + version->overlay_edges() -
                                        version->removed_edges())
          violations.fetch_add(1);
      }
    });
  }

  // Writers: random symmetric inserts AND retractions; one thread also
  // publishes and compacts so base swaps (including tombstone folds)
  // happen under read load.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Xoshiro256 rng(1000 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < 400; ++i) {
        const auto u = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
        const auto v = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
        if (rng.uniform() < 0.3) {
          graph.remove_edge(u, v);
        } else {
          graph.add_edge(u, v);
        }
        if (i % 50 == 0) graph.publish();
        if (w == 0 && i % 150 == 0) graph.compact();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  graph.publish();
  EXPECT_TRUE(graph.current()->validate());
  // Conservation: every accepted directed insert landed in base or
  // overlay, every accepted retraction took exactly one edge back out.
  const StreamStats stats = graph.stats();
  EXPECT_EQ(graph.current()->num_edges(),
            community().graph.num_edges() + stats.ingested_edges - stats.removed_edges);
}

// ---------------------------------------------------------- OverlaySampler

TEST(OverlaySampler, BitIdenticalToNeighborSamplerOnEmptyOverlay) {
  const Dataset& ds = community();
  StreamingGraph graph(ds);
  NeighborSampler reference(ds.graph, {4, 3}, 77);
  OverlaySampler overlay(graph.current(), {4, 3}, 77);
  const std::vector<VertexId> seeds = {0, 7, 19, 42};
  for (int round = 0; round < 3; ++round) {
    const MiniBatch expected = reference.sample(seeds);
    const MiniBatch actual = overlay.sample(seeds);
    ASSERT_EQ(actual.blocks.size(), expected.blocks.size());
    for (std::size_t l = 0; l < expected.blocks.size(); ++l) {
      EXPECT_EQ(actual.blocks[l].src_nodes, expected.blocks[l].src_nodes);
      EXPECT_EQ(actual.blocks[l].indptr, expected.blocks[l].indptr);
      EXPECT_EQ(actual.blocks[l].indices, expected.blocks[l].indices);
      EXPECT_EQ(actual.blocks[l].src_degrees, expected.blocks[l].src_degrees);
    }
  }
}

TEST(OverlaySampler, DistributionMatchesRebuiltCsrWithinTolerance) {
  // Star: vertex 0 with 5 base neighbors and 5 overlay neighbors; a
  // fanout-3 sample must hit every neighbor with probability 3/10,
  // matching a sampler over the rebuilt 10-neighbor CSR.
  const VertexId n = 11;
  std::vector<std::pair<VertexId, VertexId>> base_edges;
  for (VertexId v = 1; v <= 5; ++v) base_edges.emplace_back(0, v);
  Dataset ds;
  ds.graph = build_csr(n, base_edges);
  ds.features.resize(n, 4);
  ds.labels.assign(static_cast<std::size_t>(n), 0);
  ds.info.f0 = 4;
  ds.info.f2 = 2;

  StreamingGraph graph(ds);
  for (VertexId v = 6; v <= 10; ++v) ASSERT_TRUE(graph.add_edge(0, v));
  const auto version = graph.publish();
  ASSERT_EQ(version->degree(0), 10);

  std::vector<std::pair<VertexId, VertexId>> union_edges = base_edges;
  for (VertexId v = 6; v <= 10; ++v) union_edges.emplace_back(0, v);
  const CsrGraph rebuilt = build_csr(n, union_edges);

  constexpr int kTrials = 20000;
  OverlaySampler overlay(version, {3}, 0);
  NeighborSampler reference(rebuilt, {3}, 0);
  std::map<VertexId, int> overlay_counts;
  std::map<VertexId, int> rebuilt_counts;
  for (int t = 0; t < kTrials; ++t) {
    overlay.reseed(static_cast<std::uint64_t>(t));
    reference.reseed(static_cast<std::uint64_t>(t));
    const MiniBatch o = overlay.sample({0});
    const MiniBatch r = reference.sample({0});
    const LayerBlock& ob = o.blocks[0];
    for (EdgeId e = ob.indptr[0]; e < ob.indptr[1]; ++e) {
      ++overlay_counts[ob.src_nodes[static_cast<std::size_t>(
          ob.indices[static_cast<std::size_t>(e)])]];
    }
    const LayerBlock& rb = r.blocks[0];
    for (EdgeId e = rb.indptr[0]; e < rb.indptr[1]; ++e) {
      ++rebuilt_counts[rb.src_nodes[static_cast<std::size_t>(
          rb.indices[static_cast<std::size_t>(e)])]];
    }
  }
  const double expected = 3.0 / 10.0 * kTrials;
  for (VertexId v = 1; v <= 10; ++v) {
    EXPECT_NEAR(overlay_counts[v], expected, expected * 0.08) << "neighbor " << v;
    EXPECT_NEAR(overlay_counts[v], rebuilt_counts[v], expected * 0.08) << "neighbor " << v;
  }
}

TEST(OverlaySampler, SrcDegreesReportCombinedDegree) {
  StreamingGraph graph(two_component_dataset());
  ASSERT_TRUE(graph.add_edge(0, 5));
  const auto version = graph.publish();
  OverlaySampler sampler(version, {16}, 3);
  const MiniBatch mb = sampler.sample({0});
  ASSERT_FALSE(mb.blocks.empty());
  const LayerBlock& block = mb.blocks[0];
  ASSERT_EQ(block.src_nodes[0], 0);
  EXPECT_EQ(block.src_degrees[0], 3);  // ring degree 2 + streamed edge
}

TEST(OverlaySampler, SampleFullOverlayTakesEveryNeighbor) {
  StreamingGraph graph(two_component_dataset());
  ASSERT_TRUE(graph.add_edge(0, 5));
  ASSERT_TRUE(graph.add_edge(0, 7));
  const auto version = graph.publish();
  const MiniBatch mb = sample_full_overlay(*version, {0}, 1);
  const LayerBlock& block = mb.blocks[0];
  std::vector<VertexId> sampled;
  for (EdgeId e = block.indptr[0]; e < block.indptr[1]; ++e) {
    sampled.push_back(
        block.src_nodes[static_cast<std::size_t>(block.indices[static_cast<std::size_t>(e)])]);
  }
  std::sort(sampled.begin(), sampled.end());
  EXPECT_EQ(sampled, (std::vector<VertexId>{1, 5, 7, 19}));
}

// ------------------------------------------------------ streaming serving

TEST(StreamingServing, MatchesStaticServerBeforeAnyUpdates) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;       // full neighborhood: exact logits
  config.num_workers = 1;
  auto static_backend = make_static_backend(ds, config);
  InferenceServer static_server(*static_backend, snapshot, config);
  StreamingGraph graph(ds);
  auto streaming_backend = make_streaming_backend(graph, config);
  InferenceServer streaming_server(*streaming_backend, snapshot, config);
  EXPECT_STREQ(streaming_server.backend().name(), "streaming");

  const std::vector<VertexId> seeds = {1, 17, 33};
  const InferenceResult expected = static_server.infer(seeds);
  const InferenceResult actual = streaming_server.infer(seeds);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(actual.logits, expected.logits), 0.0);
}

TEST(StreamingServing, QueriesSeePublishedUpdates) {
  Dataset ds = two_component_dataset();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.num_workers = 1;
  StreamingGraph graph(ds);
  auto backend = make_streaming_backend(graph, config);
  InferenceServer server(*backend, snapshot, config);

  const std::vector<VertexId> seeds = {0};
  const InferenceResult before = server.infer(seeds);
  ASSERT_TRUE(graph.add_edge(0, 10));
  graph.publish();
  // Fold the overlay so adjacency enumeration matches a one-shot build,
  // then the served logits must EXACTLY equal a static server over the
  // updated graph.
  ASSERT_TRUE(graph.compact());
  const InferenceResult after = server.infer(seeds);
  EXPECT_GT(Tensor::max_abs_diff(after.logits, before.logits), 0.0);

  std::vector<std::pair<VertexId, VertexId>> union_edges;
  for (VertexId v = 0; v < ds.graph.num_vertices(); ++v) {
    for (VertexId u : ds.graph.neighbors(v)) union_edges.emplace_back(v, u);
  }
  union_edges.emplace_back(0, 10);
  Dataset updated = two_component_dataset();
  updated.graph = build_csr(ds.graph.num_vertices(), std::move(union_edges));
  auto reference_backend = make_static_backend(updated, config);
  InferenceServer reference(*reference_backend, snapshot, config);
  const InferenceResult expected = reference.infer(seeds);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(after.logits, expected.logits), 0.0);
}

TEST(StreamingServing, CompactionPreservesExactLogitsForUnchangedVertices) {
  Dataset ds = two_component_dataset();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;  // full neighborhood: deterministic by construction
  config.num_workers = 2;
  StreamingGraph graph(ds);
  auto backend = make_streaming_backend(graph, config);
  InferenceServer server(*backend, snapshot, config);

  // Mutate component A only (vertices < 20).
  ASSERT_TRUE(graph.add_edge(0, 5));
  ASSERT_TRUE(graph.add_edge(3, 11));
  ASSERT_TRUE(graph.add_edge(8, 14));
  graph.publish();

  // Component B (vertices >= 20) is untouched at ANY hop distance.
  const std::vector<VertexId> unchanged = {25, 31, 38};
  const InferenceResult before = server.infer(unchanged);
  ASSERT_TRUE(graph.compact());
  const InferenceResult after = server.infer(unchanged);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(after.logits, before.logits), 0.0);

  // Changed vertices still serve valid (finite) logits.
  const InferenceResult changed = server.infer({0, 3});
  for (float x : changed.logits.flat()) EXPECT_TRUE(std::isfinite(x));
}

TEST(StreamingServing, CacheInvalidationPreventsStaleFeatures) {
  Dataset ds = two_component_dataset();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.num_workers = 1;
  config.cache_capacity_rows = ds.graph.num_vertices();  // everything pinned
  StreamingGraph graph(ds);
  auto backend = make_streaming_backend(graph, config);
  InferenceServer server(*backend, snapshot, config);

  const std::vector<VertexId> seeds = {22};
  const InferenceResult before = server.infer(seeds);

  // Rewrite the features of the seed and its ring neighbors.
  Xoshiro256 rng(4242);
  Dataset updated = two_component_dataset();
  for (VertexId v : {21, 22, 23}) {
    std::vector<float> row(8);
    for (float& x : row) x = static_cast<float>(rng.normal());
    graph.update_feature(v, row);
    std::copy(row.begin(), row.end(), updated.features.row(v).begin());
  }

  const InferenceResult after = server.infer(seeds);
  EXPECT_GT(Tensor::max_abs_diff(after.logits, before.logits), 0.0);

  // Freshness is exact: identical to a static server over the updated
  // dataset (all rows pinned, so every gather goes through the device
  // copies the invalidation hook refreshed).
  auto reference_backend = make_static_backend(updated, config);
  InferenceServer reference(*reference_backend, snapshot, config);
  const InferenceResult expected = reference.infer(seeds);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(after.logits, expected.logits), 0.0);
  EXPECT_EQ(server.cache()->invalidations(), 3);
  EXPECT_GT(server.cache()->since_invalidate().hits, 0);
}

TEST(FeatureCacheInvalidate, RefreshesDeviceRowsAndResetsWindow) {
  const Dataset& ds = community();
  MutableFeatureStore store(ds.features);
  StaticFeatureCache cache(ds.graph, store, ds.graph.num_vertices());

  std::vector<float> fresh(static_cast<std::size_t>(store.cols()), 7.5f);
  NeighborSampler sampler(ds.graph, {3}, 1);
  std::vector<char> scratch;
  Tensor x;
  const auto gather_batch = [&] {
    const MiniBatch batch = sampler.sample({3});
    const auto& nodes = batch.input_nodes();
    return cache.gather(std::span<const VertexId>(nodes.data(), nodes.size()), x, scratch);
  };
  const VertexId ids[1] = {3};
  const std::span<const VertexId> row3(ids, 1);
  Tensor out;
  gather_batch();  // pre-invalidation traffic
  // A store write alone leaves the device copy stale…
  store.update_row(3, fresh);
  ASSERT_EQ(cache.gather(row3, out, scratch).hits, 1);
  EXPECT_NE(out.at(0, 0), 7.5f);
  // …invalidate refreshes it.
  EXPECT_EQ(cache.invalidate(row3), 1);
  EXPECT_EQ(cache.invalidations(), 1);
  EXPECT_EQ(cache.invalidated_rows(), 1);
  EXPECT_EQ(cache.since_invalidate().hits, 0);  // window reset
  ASSERT_EQ(cache.gather(row3, out, scratch).hits, 1);
  for (float x : out.row(0)) EXPECT_FLOAT_EQ(x, 7.5f);

  gather_batch();
  EXPECT_GT(cache.since_invalidate().hits, 0);
  EXPECT_GT(cache.totals().hits, cache.since_invalidate().hits);
}

TEST(ServingStats, SplitsQueueWaitFromCompute) {
  ServingStats stats;
  stats.record_completion(/*latency=*/0.010, /*queue_wait=*/0.004);
  stats.record_completion(/*latency=*/0.020, /*queue_wait=*/0.012);
  const ServingSnapshot s = stats.snapshot();
  EXPECT_DOUBLE_EQ(s.latency_mean, 0.015);
  EXPECT_DOUBLE_EQ(s.queue_wait_mean, 0.008);
  EXPECT_DOUBLE_EQ(s.compute_mean, 0.007);
  EXPECT_DOUBLE_EQ(s.queue_wait_max, 0.012);
  // Percentiles at histogram bucket resolution (~15%).
  EXPECT_NEAR(s.queue_wait_p50, 0.004, 0.15 * 0.004);
  EXPECT_NEAR(s.queue_wait_p99, 0.012, 0.15 * 0.012);
  EXPECT_DOUBLE_EQ(ServingStats().snapshot().queue_wait_mean, 0.0);
}

// -------------------------------------------------------------- tombstones

TEST(Tombstones, DoubleDeleteOfBaseEdgeIsRejected) {
  StreamingGraph graph(two_component_dataset());
  ASSERT_TRUE(graph.remove_edge(0, 1));   // base ring edge
  EXPECT_FALSE(graph.remove_edge(0, 1));  // double delete
  EXPECT_FALSE(graph.remove_edge(1, 0));  // reverse direction is the same edge
  EXPECT_FALSE(graph.remove_edge(0, 5));  // never existed
  const StreamStats stats = graph.stats();
  EXPECT_EQ(stats.removed_edges, 2);  // one undirected edge, both directions
  EXPECT_EQ(stats.rejected_removals, 3);
  const auto version = graph.publish();
  EXPECT_EQ(version->degree(0), 1);  // ring degree 2 minus the retraction
  EXPECT_EQ(version->num_edges(), two_component_dataset().graph.num_edges() - 2);
  EXPECT_TRUE(version->validate());
}

TEST(Tombstones, DeletingPendingInsertionCancelsIt) {
  StreamingGraph graph(two_component_dataset());
  ASSERT_TRUE(graph.add_edge(0, 5));     // pending, never published
  ASSERT_TRUE(graph.remove_edge(0, 5));  // retract before any publish
  EXPECT_FALSE(graph.remove_edge(0, 5));
  const auto version = graph.publish();
  // The pair cancelled: no net overlay, no tombstone, original topology.
  EXPECT_EQ(version->overlay_edges(), 0);
  EXPECT_EQ(version->removed_edges(), 0);
  EXPECT_EQ(version->num_edges(), two_component_dataset().graph.num_edges());
  EXPECT_EQ(version->degree(0), 2);
  EXPECT_TRUE(version->validate());
  // A cancelled pair must also fold to a no-op.
  ASSERT_TRUE(graph.compact());
  EXPECT_EQ(graph.current()->num_edges(), two_component_dataset().graph.num_edges());
}

TEST(Tombstones, DeleteThenReinsertAcrossCompactionBoundary) {
  // DeltaStore-level: deterministic interleaving of a retraction whose
  // snapshot is mid-compaction when the re-insert arrives.
  auto base = shared_csr(4, {{0, 1}});  // symmetrized: 0-1 both directions
  DeltaStore store(base);
  ASSERT_EQ(store.remove_edge_pair(0, 1), 2);
  const DeltaStore::Snapshot snap = store.snapshot(/*advance_epoch=*/true);
  EXPECT_EQ(snap.num_removes, 2);

  // Re-insert lands while the compactor is still folding the tombstone.
  ASSERT_EQ(store.add_edge_pair(0, 1), 2);

  // Compactor folds the captured prefix: tombstone drops the base edge.
  auto merged = shared_csr(4, {});
  store.rebase(merged, snap.epoch);

  // The post-snapshot insert survived the truncate and now applies
  // against the merged (edge-less) base: the edge is live again.
  const DeltaStore::Snapshot after = store.snapshot(false);
  EXPECT_EQ(after.num_inserts, 2);
  EXPECT_EQ(after.num_removes, 0);
  // ...and is a duplicate for further inserts, but removable.
  EXPECT_EQ(store.add_edge_pair(0, 1), 0);
  EXPECT_EQ(store.remove_edge_pair(0, 1), 2);
}

TEST(Tombstones, DeleteThenReinsertRoundTripMatchesRebuild) {
  const Dataset ds = two_component_dataset();
  StreamingGraph graph(ds);
  ASSERT_TRUE(graph.remove_edge(3, 4));
  ASSERT_TRUE(graph.compact());  // fold the tombstone into a fresh base
  ASSERT_TRUE(graph.add_edge(3, 4));  // reinsert across the boundary
  ASSERT_TRUE(graph.compact());
  // Round trip: identical to a one-shot build of the original topology.
  const auto version = graph.current();
  EXPECT_EQ(version->base().indptr(), ds.graph.indptr());
  EXPECT_EQ(version->base().indices(), ds.graph.indices());
  EXPECT_TRUE(version->validate());
}

TEST(Tombstones, DeletingLastEdgeIsolatesVertex) {
  StreamingGraph graph(two_component_dataset());
  // Vertex 0's ring edges are {0,1} and {0,19}.
  ASSERT_TRUE(graph.remove_edge(0, 1));
  ASSERT_TRUE(graph.remove_edge(19, 0));
  const auto version = graph.publish();
  EXPECT_EQ(version->degree(0), 0);
  EXPECT_TRUE(version->alive(0));  // isolated, not dead
  std::vector<VertexId> live;
  version->append_neighbors(0, live);
  EXPECT_TRUE(live.empty());
  // Sampling an isolated vertex yields an empty neighborhood, not an error.
  OverlaySampler sampler(version, {4}, 7);
  const MiniBatch mb = sampler.sample({0});
  EXPECT_EQ(mb.blocks[0].indptr, (std::vector<EdgeId>{0, 0}));
  EXPECT_EQ(mb.blocks[0].src_degrees[0], 0);
  // The isolated vertex survives compaction (ids are stable handles).
  ASSERT_TRUE(graph.compact());
  EXPECT_EQ(graph.current()->num_vertices(), 40);
  EXPECT_EQ(graph.current()->degree(0), 0);
  EXPECT_TRUE(graph.current()->validate());
}

TEST(Tombstones, RemoveVertexRetractsBothDirectionsAndMarksDead) {
  const Dataset ds = two_component_dataset();
  StreamingGraph graph(ds);
  ASSERT_TRUE(graph.remove_vertex(0));
  EXPECT_FALSE(graph.remove_vertex(0));        // already dead
  EXPECT_FALSE(graph.add_edge(0, 5));          // dead endpoints reject edge ops
  EXPECT_FALSE(graph.remove_edge(1, 0));       // its edges are already gone
  const auto version = graph.publish();
  EXPECT_FALSE(version->alive(0));
  EXPECT_EQ(version->num_dead(), 1);
  EXPECT_EQ(version->degree(0), 0);
  EXPECT_EQ(version->degree(1), 1);   // lost its edge to 0
  EXPECT_EQ(version->degree(19), 1);
  EXPECT_EQ(version->num_edges(), ds.graph.num_edges() - 4);
  EXPECT_TRUE(version->validate());
  // The feature row is zeroed so the retracted entity gathers zeros.
  Tensor out;
  const VertexId nodes[1] = {0};
  graph.gather(std::span<const VertexId>(nodes, 1), out);
  for (std::int64_t j = 0; j < out.cols(); ++j) EXPECT_FLOAT_EQ(out.at(0, j), 0.0f);
}

TEST(Tombstones, StreamedVertexIdIsRecycledAfterCompaction) {
  StreamingGraph graph(two_component_dataset());
  std::vector<float> row(8, 1.0f);
  const VertexId v = graph.add_vertex(row);
  ASSERT_EQ(v, 40);
  ASSERT_TRUE(graph.add_edge(v, 0));
  ASSERT_TRUE(graph.add_edge(v, 25));
  ASSERT_TRUE(graph.remove_vertex(v));
  // Not recyclable until a compaction folds the death.
  std::vector<float> other(8, 2.0f);
  const VertexId fresh = graph.add_vertex(other);
  EXPECT_EQ(fresh, 41);
  ASSERT_TRUE(graph.compact());
  EXPECT_TRUE(graph.current()->validate());
  EXPECT_EQ(graph.current()->degree(0), 2);  // v's attachment edges folded away

  // Now the dead id comes back with a fresh feature row.
  std::vector<float> recycled_row(8, 3.0f);
  const VertexId recycled = graph.add_vertex(recycled_row);
  EXPECT_EQ(recycled, v);
  EXPECT_EQ(graph.stats().recycled_vertices, 1);
  const auto version = graph.publish();
  EXPECT_TRUE(version->alive(v));
  EXPECT_EQ(version->degree(v), 0);
  Tensor out;
  const VertexId nodes[1] = {v};
  graph.gather(std::span<const VertexId>(nodes, 1), out);
  for (std::int64_t j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(out.at(0, j), 3.0f);
  // Dataset vertices are never recycled: retire a base vertex, compact,
  // and the next add still grows the space.
  ASSERT_TRUE(graph.remove_vertex(7));
  ASSERT_TRUE(graph.compact());
  EXPECT_EQ(graph.add_vertex(row), 42);
}

TEST(Tombstones, RejectedRowLeavesTheRecycledIdInThePool) {
  // A row the store rejects must throw before add_vertex reclaims an
  // id: otherwise the id leaves the free pool, stays alive with no
  // owner, and the next add grows the space instead of reusing it.
  StreamingGraph graph(two_component_dataset());
  const std::vector<float> row(8, 1.0f);
  const VertexId v = graph.add_vertex(row);
  ASSERT_TRUE(graph.remove_vertex(v));
  ASSERT_TRUE(graph.compact());
  ASSERT_EQ(graph.recyclable_vertices(), 1);

  const std::vector<float> short_row(7, 1.0f);
  EXPECT_THROW(graph.add_vertex(short_row), std::invalid_argument);
  std::vector<float> nan_row(8, 1.0f);
  nan_row[3] = std::nanf("");
  EXPECT_THROW(graph.add_vertex(nan_row), std::invalid_argument);
  EXPECT_EQ(graph.recyclable_vertices(), 1);
  EXPECT_EQ(graph.num_vertices(), v + 1);
  EXPECT_EQ(graph.stats().added_vertices, 1);
  EXPECT_EQ(graph.add_vertex(row), v);  // the id is still reused
  EXPECT_EQ(graph.stats().recycled_vertices, 1);
}

TEST(StreamingGraph, NonFiniteRowsAreRejectedAtBothPrecisions) {
  // A non-finite value has no int8 encoding (the quantizer's int cast
  // is undefined for it), and at fp32 it would poison every logit that
  // reads the row: both precisions reject it before any state changes.
  const Dataset ds = two_component_dataset();
  for (const TransferPrecision precision : {TransferPrecision::kFp32, TransferPrecision::kInt8}) {
    SCOPED_TRACE(precision == TransferPrecision::kInt8 ? "int8" : "fp32");
    auto store = std::make_shared<MutableFeatureStore>(ds.features, precision);
    StreamingGraph graph(ds, {}, store);
    const VertexId nodes[1] = {3};
    Tensor before;
    graph.gather(std::span<const VertexId>(nodes, 1), before);
    for (const float bad : {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), std::nanf("")}) {
      std::vector<float> row(8, 0.5f);
      row[5] = bad;
      EXPECT_THROW(graph.update_feature(3, row), std::invalid_argument);
      EXPECT_THROW(graph.add_vertex(row), std::invalid_argument);
      EXPECT_THROW(store->update_row(3, row), std::invalid_argument);
      EXPECT_THROW(store->append_row(row), std::invalid_argument);
    }
    EXPECT_THROW(graph.update_feature(3, std::vector<float>(9, 0.5f)), std::invalid_argument);
    EXPECT_EQ(graph.num_vertices(), 40);
    EXPECT_EQ(store->rows(), 40);
    EXPECT_EQ(graph.stats().feature_updates, 0);
    Tensor after;
    graph.gather(std::span<const VertexId>(nodes, 1), after);
    EXPECT_EQ(Tensor::max_abs_diff(after, before), 0.0);
  }
}

TEST(DeltaStore, DirectedRemoveVertexRetractsOnlyLiveDirections) {
  // A hand-built base may list an edge one way only (5 -> 7 here):
  // retiring 5 must not tombstone the non-existent reverse — a
  // tombstone for a non-edge would reduce to a phantom insertion.
  EdgeListOptions one_way;
  one_way.symmetrize = false;
  DeltaStore store(
      shared_csr(10, {{4, 5}, {5, 4}, {5, 6}, {6, 5}, {5, 7}, {8, 9}, {9, 8}}, one_way), 4);
  // Retracted: out-edges 5->4, 5->6, 5->7 plus live reverses 4->5, 6->5.
  EXPECT_EQ(store.remove_vertex(5), 5);
  const DeltaStore::Snapshot snap = store.snapshot(/*advance_epoch=*/false);
  EXPECT_EQ(snap.num_inserts, 0);  // no phantom 7->5
  EXPECT_EQ(snap.num_removes, 5);

  // Re-insert to a dead vertex stays rejected, from either endpoint.
  EXPECT_EQ(store.add_edge_pair(5, 7), 0);
  EXPECT_EQ(store.add_edge_pair(8, 5), 0);
  EXPECT_EQ(store.delta_edges(), 0);
}

TEST(Tombstones, DeadVertexRefusesFeatureUpdates) {
  StreamingGraph graph(two_component_dataset());
  std::vector<float> fresh(8, 9.0f);
  ASSERT_TRUE(graph.remove_vertex(3));
  EXPECT_FALSE(graph.update_feature(3, fresh));  // retracted entity stays zeroed
  EXPECT_TRUE(graph.update_feature(4, fresh));
  Tensor out;
  const VertexId nodes[2] = {3, 4};
  graph.gather(std::span<const VertexId>(nodes, 2), out);
  for (std::int64_t j = 0; j < 8; ++j) {
    EXPECT_FLOAT_EQ(out.at(0, j), 0.0f);
    EXPECT_FLOAT_EQ(out.at(1, j), 9.0f);
  }
  EXPECT_EQ(graph.stats().feature_updates, 1);  // the rejected write is not counted
}

TEST(Tombstones, CompactorFoldsOpLessRetirementForRecycling) {
  // Retiring an already-isolated streamed-in vertex appends zero edge
  // ops; the background compactor must still fold it (pending-scrub
  // trigger) or the id and feature row would never be recycled.
  StreamingGraph graph(two_component_dataset());
  std::vector<float> row(8, 1.5f);
  const VertexId v = graph.add_vertex(row);  // no edges: already isolated
  ASSERT_TRUE(graph.compact());              // fold the vertex-space growth
  ASSERT_TRUE(graph.remove_vertex(v));       // op-less retirement
  EXPECT_EQ(graph.overlay_ops(), 0);
  EXPECT_TRUE(graph.has_pending_scrubs());

  CompactionPolicy policy;
  policy.max_overlay_edges = 1 << 20;  // unreachable: only the scrub trigger fires
  policy.max_overlay_ratio = 1e9;
  policy.poll_interval = 5e-4;
  Compactor compactor(graph, policy);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (graph.has_pending_scrubs() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  compactor.stop();
  EXPECT_FALSE(graph.has_pending_scrubs());
  EXPECT_GE(compactor.compactions(), 1);
  // The id is recyclable now.
  std::vector<float> fresh(8, 2.5f);
  EXPECT_EQ(graph.add_vertex(fresh), v);
  EXPECT_EQ(graph.stats().recycled_vertices, 1);
}

TEST(Tombstones, SamplerSkipsTombstonesWithCorrectDistribution) {
  // Star: vertex 0 with 8 base neighbors; delete 3 and insert 2, so the
  // live adjacency is 7 wide.  A fanout-3 sample must hit every LIVE
  // neighbor with probability 3/7 and a deleted neighbor never, exactly
  // like a sampler over the rebuilt 7-neighbor CSR.
  const VertexId n = 11;
  std::vector<std::pair<VertexId, VertexId>> base_edges;
  for (VertexId v = 1; v <= 8; ++v) base_edges.emplace_back(0, v);
  Dataset ds;
  ds.graph = build_csr(n, base_edges);
  ds.features.resize(n, 4);
  ds.labels.assign(static_cast<std::size_t>(n), 0);
  ds.info.f0 = 4;
  ds.info.f2 = 2;

  StreamingGraph graph(ds);
  for (VertexId v : {2, 5, 7}) ASSERT_TRUE(graph.remove_edge(0, v));
  for (VertexId v : {9, 10}) ASSERT_TRUE(graph.add_edge(0, v));
  const auto version = graph.publish();
  ASSERT_EQ(version->degree(0), 7);

  std::vector<std::pair<VertexId, VertexId>> live_edges;
  for (VertexId v : {1, 3, 4, 6, 8, 9, 10}) live_edges.emplace_back(VertexId{0}, v);
  const CsrGraph rebuilt = build_csr(n, live_edges);

  constexpr int kTrials = 20000;
  OverlaySampler overlay(version, {3}, 0);
  NeighborSampler reference(rebuilt, {3}, 0);
  std::map<VertexId, int> overlay_counts;
  std::map<VertexId, int> rebuilt_counts;
  for (int t = 0; t < kTrials; ++t) {
    overlay.reseed(static_cast<std::uint64_t>(t));
    reference.reseed(static_cast<std::uint64_t>(t));
    const MiniBatch o = overlay.sample({0});
    const LayerBlock& ob = o.blocks[0];
    for (EdgeId e = ob.indptr[0]; e < ob.indptr[1]; ++e) {
      ++overlay_counts[ob.src_nodes[static_cast<std::size_t>(
          ob.indices[static_cast<std::size_t>(e)])]];
    }
    const MiniBatch r = reference.sample({0});
    const LayerBlock& rb = r.blocks[0];
    for (EdgeId e = rb.indptr[0]; e < rb.indptr[1]; ++e) {
      ++rebuilt_counts[rb.src_nodes[static_cast<std::size_t>(
          rb.indices[static_cast<std::size_t>(e)])]];
    }
  }
  const double expected = 3.0 / 7.0 * kTrials;
  for (VertexId v : {1, 3, 4, 6, 8, 9, 10}) {
    EXPECT_NEAR(overlay_counts[v], expected, expected * 0.08) << "neighbor " << v;
    // Identical live adjacency + identical RNG discipline: the overlay
    // sample is bit-identical to the rebuilt sample, not just close.
    EXPECT_EQ(overlay_counts[v], rebuilt_counts[v]) << "neighbor " << v;
  }
  for (VertexId v : {2, 5, 7}) EXPECT_EQ(overlay_counts[v], 0) << "tombstoned neighbor " << v;
}

TEST(FeatureCacheEvict, DeletedVertexIsNeverServedFromCache) {
  // Regression: remove_vertex must evict the pinned device row, not
  // just rely on invalidate-from-update_feature — otherwise a query for
  // the retracted entity is served its stale pinned features.
  Dataset ds = two_component_dataset();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;  // full neighborhood: exact logits
  config.num_workers = 1;
  config.cache_capacity_rows = ds.graph.num_vertices();  // everything pinned
  StreamingGraph graph(ds);
  auto backend = make_streaming_backend(graph, config);
  InferenceServer server(*backend, snapshot, config);

  ASSERT_TRUE(server.cache()->cached(21));
  ASSERT_TRUE(graph.remove_vertex(21));
  graph.publish();
  EXPECT_FALSE(server.cache()->cached(21));
  EXPECT_EQ(server.cache()->evictions(), 1);

  // Reference: a static server over the dataset with 21's edges dropped
  // and its feature row zeroed — what a correct retraction must serve.
  Dataset updated = two_component_dataset();
  std::vector<std::pair<VertexId, VertexId>> live;
  for (VertexId v = 0; v < ds.graph.num_vertices(); ++v) {
    if (v == 21) continue;
    for (VertexId u : ds.graph.neighbors(v)) {
      if (u != 21) live.emplace_back(v, u);
    }
  }
  EdgeListOptions options;
  options.symmetrize = false;
  updated.graph = build_csr(ds.graph.num_vertices(), std::move(live), options);
  for (std::int64_t j = 0; j < updated.features.cols(); ++j) updated.features.at(21, j) = 0.0f;
  auto reference_backend = make_static_backend(updated, config);
  InferenceServer reference(*reference_backend, snapshot, config);

  // The dead vertex itself and its ex-neighbors must match exactly.
  for (const std::vector<VertexId>& seeds :
       {std::vector<VertexId>{21}, std::vector<VertexId>{20, 22}}) {
    const InferenceResult actual = server.infer(seeds);
    const InferenceResult expected = reference.infer(seeds);
    EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(actual.logits, expected.logits), 0.0);
  }
}

// ----------------------------------------------- compactor + update driver

TEST(Compactor, BackgroundThreadFoldsOverlayPastThreshold) {
  StreamingGraph graph(community());
  CompactionPolicy policy;
  policy.max_overlay_edges = 64;
  policy.max_overlay_ratio = 1e9;  // size-triggered only
  policy.poll_interval = 5e-4;
  Compactor compactor(graph, policy);

  Xoshiro256 rng(7);
  const VertexId n = graph.num_vertices();
  for (int i = 0; i < 600; ++i) {
    graph.add_edge(static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n))),
                   static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n))));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (graph.overlay_edges() >= policy.max_overlay_edges &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  compactor.stop();
  EXPECT_GE(compactor.compactions(), 1);
  EXPECT_LT(graph.overlay_edges(), policy.max_overlay_edges);
  EXPECT_TRUE(graph.current()->validate());
}

TEST(UpdateGenerator, ReportMatchesGraphCounters) {
  StreamingGraph graph(community());
  UpdateGeneratorConfig config;
  config.operations = 300;
  config.num_threads = 2;
  config.publish_every = 32;
  config.edge_delete_fraction = 0.20;
  config.vertex_delete_fraction = 0.05;
  config.seed = 5;
  UpdateGenerator generator(graph, config);
  const UpdateReport report = generator.run();

  EXPECT_EQ(report.operations, 300);
  const StreamStats stats = graph.stats();
  EXPECT_EQ(stats.ingested_edges, report.accepted_edges);
  EXPECT_EQ(stats.removed_edges, report.removed_edges);
  EXPECT_EQ(stats.rejected_removals, report.rejected_removals);
  EXPECT_EQ(stats.added_vertices, report.added_vertices);
  EXPECT_EQ(stats.removed_vertices, report.removed_vertices);
  EXPECT_EQ(stats.feature_updates, report.feature_updates);
  EXPECT_EQ(stats.publishes, report.publishes);
  EXPECT_GT(report.removed_edges, 0);
  EXPECT_GT(report.edges_per_second, 0.0);
  EXPECT_GT(stats.publish_lag_max, 0.0);
  // Everything accepted is visible after the trailing publish, and
  // every accepted retraction took exactly one directed edge back out.
  EXPECT_EQ(graph.current()->num_edges(),
            community().graph.num_edges() + report.accepted_edges - report.removed_edges);
  EXPECT_TRUE(graph.current()->validate());
}

TEST(ServingSession, FacadeServesMixedLoadEndToEnd) {
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
  serving.cache_capacity_rows = 32;
  CompactionPolicy compaction;
  compaction.max_overlay_edges = 128;
  ServingSession session = system.stream(serving, {}, compaction);

  UpdateGeneratorConfig updates;
  updates.operations = 150;
  updates.publish_every = 16;
  UpdateGenerator update_generator(session.stream(), updates);
  UpdateReport update_report;
  std::thread update_thread([&] { update_report = update_generator.run(); });

  LoadGeneratorConfig load;
  load.num_clients = 3;
  load.requests_per_client = 20;
  load.seeds_per_request = 2;
  LoadGenerator generator(*session.server, ds, load);
  const LoadReport report = generator.run();
  update_thread.join();

  EXPECT_EQ(report.completed_requests, 60);
  EXPECT_GT(update_report.accepted_edges, 0);
  EXPECT_GT(report.server.completed_batches, 0);
  EXPECT_TRUE(session.stream().current()->validate());
  // Queue wait and compute are both populated and bounded by latency.
  EXPECT_GE(report.server.queue_wait_mean, 0.0);
  EXPECT_GT(report.server.compute_mean, 0.0);
  EXPECT_LE(report.server.queue_wait_mean, report.server.latency_mean);
}

}  // namespace
}  // namespace hyscale
