// Mutable, growable feature storage for an evolving graph.
//
// The base feature matrix (encoded from the dataset at construction) is
// updatable row-in-place; vertices streamed in later get appended rows
// in an extension area.  A shared_mutex arbitrates gathers (shared)
// against row updates and appends (exclusive) so serving workers never
// read a row mid-write — the property the TSan CI job checks.
//
// ROW FORMAT: the store's precision is fixed at construction and every
// row is kept as one record in that form — the bytes a host -> device
// transfer of the row moves:
//   kFp32  cols floats (4*cols bytes);
//   kInt8  [fp32 scale | int8 × cols], padded to a multiple of 4 bytes
//          so every record's scale stays float-aligned (per-row
//          symmetric quantization, tensor/quantize's int8_row_scale +
//          quantize_row_int8 — the paper's §VIII PCIe-relief proposal).
// Writes encode once (construction, update_row, append_row, reuse_row,
// release_row); gather() decodes (simd::copy or simd::dequant).  A
// StaticFeatureCache built over the store copies these records byte for
// byte, so a row served from the device copy and the same row fetched
// from the store decode identical bytes.  An int8 store keeps no fp32
// master copy: what it serves is exactly quantize_roundtrip_int8 of the
// values written.  kFp16 is rejected (the knob is {fp32, int8}).
//
// Deleted vertices release their rows: release_row() zero-fills (so a
// retracted entity can only ever gather zeros) and, for extension rows,
// marks the slot reclaimable; reuse_row() re-initialises a released
// extension row when StreamingGraph recycles the vertex id.  Base rows
// are zeroed but never reclaimed — their ids are permanent.
//
// All writes to base rows must go through StreamingGraph::update_feature
// so the StaticFeatureCache invalidation hook fires; this class only
// enforces the memory-safety half of that contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "tensor/quantize.hpp"
#include "tensor/tensor.hpp"

namespace hyscale {

class MutableFeatureStore {
 public:
  /// Encodes `base` (rows = base graph vertices) at `precision`, in one
  /// pass fanned out on the global pool.  Throws std::invalid_argument
  /// for kFp16.
  explicit MutableFeatureStore(const Tensor& base,
                               TransferPrecision precision = TransferPrecision::kFp32);

  std::int64_t cols() const { return cols_; }
  std::int64_t base_rows() const { return base_rows_; }
  std::int64_t rows() const;  ///< base + appended

  TransferPrecision precision() const { return precision_; }
  /// Bytes of one stored record (see ROW FORMAT above).
  std::size_t record_bytes() const { return record_bytes_; }
  /// Bytes one gathered row moves on the wire: 4*cols at fp32, cols + 4
  /// (values + scale) at int8.
  double row_wire_bytes() const;

  /// Throws std::invalid_argument unless `values` is a row this store
  /// accepts: cols() values, every one finite.  Every row write checks
  /// it first; callers that change other state before the write call it
  /// up front.
  void validate_row(std::span<const float> values) const;

  /// Overwrites row v (base or extension).  Throws on an out-of-range v
  /// or a row validate_row() rejects.
  void update_row(VertexId v, std::span<const float> values);

  /// Appends one extension row; returns its row index (== old rows()).
  /// Throws on a row validate_row() rejects.
  std::int64_t append_row(std::span<const float> values);

  /// Reclaims row v for a deleted vertex: zero-fills it so gathers of
  /// the retracted entity serve zeros, and (extension rows only) marks
  /// it reusable by reuse_row().  Idempotent per release/reuse cycle.
  void release_row(VertexId v);

  /// Re-initialises a released extension row for a recycled vertex id.
  /// Throws std::logic_error when v is a base row or was not released —
  /// recycling must only hand out scrubbed ids.
  void reuse_row(VertexId v, std::span<const float> values);

  /// Extension rows currently released and awaiting reuse.
  std::int64_t released_rows() const;

  /// steady_ns() timestamp of the last write to row v — construction,
  /// append, update, reuse, or an explicit touch().  The TTL eviction
  /// sweep retires entities whose last touch is older than the
  /// configured idle budget.
  std::int64_t last_touch_ns(VertexId v) const;

  /// Refreshes row v's last-touch stamp without changing its values —
  /// for LRU-style policies that want reads to keep an entity alive.
  void touch(VertexId v);

  /// Batched read-path touch: re-stamps every EXTENSION row in `nodes`
  /// under one exclusive lock (base rows are skipped — dataset vertices
  /// never expire, and stamping them would only lengthen the critical
  /// section; out-of-range ids are ignored).  When `nodes` holds no
  /// extension rows the call takes no lock at all, so static serving
  /// pays nothing.  Const because touch stamps are eviction metadata,
  /// not feature data — this is the gather hot path's hook.
  void touch_rows(std::span<const VertexId> nodes) const;

  /// Copies row v's record (record_bytes() bytes) into `dst` under the
  /// shared lock — how the device cache fills its packed copies.
  void copy_record(VertexId v, std::byte* dst) const;

  /// Decodes one record of this store's format into `dst` (cols()
  /// floats).  Touches no store state, so the device cache decodes its
  /// own copies with it.
  void decode(const std::byte* record, float* dst) const;

  /// Gathers rows `nodes` into `out` ([nodes.size(), cols()]) under one
  /// shared lock, decoding every copied record.  Rows whose
  /// `already_filled` flag is set are skipped (the device cache served
  /// those from its copy).
  void gather(std::span<const VertexId> nodes, Tensor& out,
              const std::vector<char>* already_filled = nullptr) const;

 private:
  void encode(const float* src, std::byte* dst) const;
  /// Row v's record; caller holds the lock and has range-checked v.
  std::byte* record_unlocked(VertexId v);
  const std::byte* record_unlocked(VertexId v) const;
  void check_row(VertexId v) const;

  TransferPrecision precision_;
  std::int64_t cols_ = 0;
  std::size_t record_bytes_ = 0;
  /// base_rows_ records.  Allocated uninitialised: the pooled encode
  /// is the first touch of every page, so page faults spread over the
  /// pool instead of a serial zero-fill.
  std::unique_ptr<std::byte[]> base_;
  std::vector<std::byte> extension_;  ///< appended records
  std::vector<char> released_;        ///< per extension row: awaiting reuse
  /// Per row (base + extension): last write/read-touch stamp.  Mutable
  /// so the const gather path can batch-refresh it under the lock.
  mutable std::vector<std::int64_t> touch_ns_;
  std::int64_t base_rows_ = 0;
  std::int64_t extension_rows_ = 0;
  std::int64_t released_count_ = 0;
  mutable std::shared_mutex mutex_;
};

}  // namespace hyscale
