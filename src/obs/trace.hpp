// Hot-path stage tracer: lock-free per-thread ring buffers of spans.
//
// A span is one stage of work — a request's queue wait, a batch's
// sample/gather/forward, a fold's CUT/BUILD/REBASE — stamped with
// steady-clock nanoseconds and a correlation context (batch id, version
// id) so collect() can reconstruct a request's critical path or a
// publish's phase breakdown after the fact.
//
// Memory is bounded by construction: each writer thread owns one
// fixed-size ring (single writer per slot), old records are overwritten
// in place, and threads beyond the slot budget count drops instead of
// allocating.  Records use a per-record seqlock (odd = write in
// flight) over all-atomic relaxed fields, so a concurrent collect()
// either reads a consistent record or skips it — no locks touch the
// record path and the scheme is clean under ThreadSanitizer.
//
// `TraceStage` (not `Stage`) because runtime/stage_times.hpp already
// claims `Stage` for the training pipeline's stage clock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hyscale {

enum class TraceStage : std::uint8_t {
  kQueue = 0,    ///< request enqueue -> worker pickup
  kSample,       ///< neighbourhood sampling for a batch
  kGather,       ///< feature gather (cache or store)
  kForward,      ///< model forward
  kReply,        ///< scatter results + completion accounting
  kPublish,      ///< StreamingGraph::publish snapshot section
  kCut,          ///< fold phase 1: cut the op log under the lock
  kBuild,        ///< fold phase 2: rebuild base off-lock
  kRebase,       ///< fold phase 3: swap + rebase under the lock
  kAnnihilate,   ///< in-place insert/tombstone pair GC
  kTtlSweep,     ///< ExpirySweeper retirement pass
  kAdopt,        ///< cross-shard cut adoption (version-vector swap)
};

const char* trace_stage_name(TraceStage stage);

/// One completed span.  `context` correlates spans of the same unit of
/// work (batch id for request stages, version/epoch for lifecycle
/// stages); `aux` carries a stage-specific extra (request id, op count).
struct TraceRecord {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t context = 0;
  std::uint64_t aux = 0;
  TraceStage stage = TraceStage::kQueue;
};

class StageTracer {
 public:
  /// `ring_capacity` records per writer thread, `max_threads` writer
  /// slots; both fix total memory at construction.  A disabled tracer
  /// (enabled = false) makes record() a single branch.
  explicit StageTracer(bool enabled = true, std::size_t ring_capacity = 4096,
                       std::size_t max_threads = 64);

  bool enabled() const { return enabled_; }

  /// Steady-clock nanoseconds; the one clock every span shares.
  static std::int64_t now_ns();

  void record(TraceStage stage, std::uint64_t context, std::uint64_t aux,
              std::int64_t begin_ns, std::int64_t end_ns);

  /// Seqlock-consistent copy of every retained record, unordered.
  std::vector<TraceRecord> collect() const;
  /// Records for one correlation context, sorted by begin_ns — the
  /// reconstructed critical path of that batch/publish/fold.
  std::vector<TraceRecord> context_path(std::uint64_t context) const;

  /// Spans discarded because the writer-slot budget was exhausted.
  std::int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Spans ever recorded (retained or since overwritten).
  std::int64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }

  /// RAII span: stamps begin at construction, records at destruction.
  /// No-op (not even a clock read) when the tracer is null or disabled.
  class Scope {
   public:
    Scope(StageTracer* tracer, TraceStage stage, std::uint64_t context,
          std::uint64_t aux = 0)
        : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
          stage_(stage), context_(context), aux_(aux),
          begin_ns_(tracer_ != nullptr ? now_ns() : 0) {}
    ~Scope() {
      if (tracer_ != nullptr)
        tracer_->record(stage_, context_, aux_, begin_ns_, now_ns());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageTracer* tracer_;
    TraceStage stage_;
    std::uint64_t context_;
    std::uint64_t aux_;
    std::int64_t begin_ns_;
  };

 private:
  // Per-record seqlock: seq odd while a write is in flight.  All fields
  // are atomics accessed relaxed; the fences in record()/collect() give
  // the read its consistency.
  struct Cell {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::int64_t> begin_ns{0};
    std::atomic<std::int64_t> end_ns{0};
    std::atomic<std::uint64_t> context{0};
    std::atomic<std::uint64_t> aux{0};
    std::atomic<std::uint8_t> stage{0};
  };
  struct alignas(64) Ring {
    std::unique_ptr<Cell[]> cells;
    std::atomic<std::uint64_t> head{0};  ///< next write index (monotone)
  };

  std::size_t slot_index() const;

  bool enabled_;
  std::size_t capacity_;
  std::size_t max_threads_;
  std::vector<Ring> rings_;
  mutable std::atomic<std::uint64_t> id_{0};  ///< process-unique, lazily stamped
  mutable std::atomic<std::size_t> next_slot_{0};
  std::atomic<std::int64_t> dropped_{0};
  std::atomic<std::int64_t> recorded_{0};
};

}  // namespace hyscale
