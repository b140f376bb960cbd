#include "stream/feature_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "tensor/simd.hpp"

namespace hyscale {

namespace {

/// Elements below which the construction-time encode runs serially:
/// small stores (tests, examples) are not worth a pool round trip.
constexpr std::int64_t kParallelEncodeElements = std::int64_t{1} << 18;

std::size_t record_bytes_for(TransferPrecision precision, std::int64_t cols) {
  const auto n = static_cast<std::size_t>(cols);
  if (precision == TransferPrecision::kFp32) return n * sizeof(float);
  // [scale | int8 × cols], rounded up so the next record's scale stays
  // float-aligned.
  const std::size_t bytes = sizeof(float) + n;
  return (bytes + alignof(float) - 1) / alignof(float) * alignof(float);
}

}  // namespace

MutableFeatureStore::MutableFeatureStore(const Tensor& base, TransferPrecision precision)
    : precision_(precision), cols_(base.cols()), base_rows_(base.rows()) {
  if (precision == TransferPrecision::kFp16)
    throw std::invalid_argument(
        "MutableFeatureStore: fp16 wire precision not implemented (use fp32 or int8)");
  record_bytes_ = record_bytes_for(precision, cols_);
  base_ = std::make_unique_for_overwrite<std::byte[]>(static_cast<std::size_t>(base_rows_) *
                                                       record_bytes_);
  const auto encode_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v)
      encode(base.row(static_cast<std::int64_t>(v)).data(), base_.get() + v * record_bytes_);
  };
  const auto rows = static_cast<std::size_t>(base_rows_);
  if (base.size() < kParallelEncodeElements) {
    encode_rows(0, rows);
  } else {
    ThreadPool::global().parallel_for(0, rows, encode_rows);
  }
  touch_ns_.assign(rows, steady_ns());
}

std::int64_t MutableFeatureStore::rows() const {
  std::shared_lock lock(mutex_);
  return base_rows_ + extension_rows_;
}

double MutableFeatureStore::row_wire_bytes() const {
  const auto cols = static_cast<double>(cols_);
  return precision_ == TransferPrecision::kInt8 ? cols + 4.0 : cols * 4.0;
}

void MutableFeatureStore::encode(const float* src, std::byte* dst) const {
  if (precision_ == TransferPrecision::kInt8) {
    const float scale = int8_row_scale(src, cols_);
    std::memcpy(dst, &scale, sizeof scale);
    quantize_row_int8(src, cols_, scale, reinterpret_cast<std::int8_t*>(dst + sizeof scale));
    std::fill(dst + sizeof scale + cols_, dst + record_bytes_, std::byte{0});  // padding
  } else {
    std::memcpy(dst, src, record_bytes_);
  }
}

void MutableFeatureStore::decode(const std::byte* record, float* dst) const {
  if (precision_ == TransferPrecision::kInt8) {
    float scale;
    std::memcpy(&scale, record, sizeof scale);
    simd::dequant(reinterpret_cast<const std::int8_t*>(record + sizeof scale), scale, dst,
                  cols_);
  } else {
    simd::copy(reinterpret_cast<const float*>(record), dst, cols_);
  }
}

void MutableFeatureStore::check_row(VertexId v) const {
  if (v < 0 || v >= base_rows_ + extension_rows_)
    throw std::out_of_range("MutableFeatureStore: row out of range");
}

std::byte* MutableFeatureStore::record_unlocked(VertexId v) {
  return v < base_rows_ ? base_.get() + static_cast<std::size_t>(v) * record_bytes_
                        : extension_.data() +
                              static_cast<std::size_t>(v - base_rows_) * record_bytes_;
}

const std::byte* MutableFeatureStore::record_unlocked(VertexId v) const {
  return const_cast<MutableFeatureStore*>(this)->record_unlocked(v);
}

void MutableFeatureStore::validate_row(std::span<const float> values) const {
  if (static_cast<std::int64_t>(values.size()) != cols_)
    throw std::invalid_argument("MutableFeatureStore: wrong row length");
  if (!std::all_of(values.begin(), values.end(), [](float x) { return std::isfinite(x); }))
    throw std::invalid_argument("MutableFeatureStore: non-finite feature value");
}

void MutableFeatureStore::update_row(VertexId v, std::span<const float> values) {
  validate_row(values);
  std::unique_lock lock(mutex_);
  check_row(v);
  encode(values.data(), record_unlocked(v));
  touch_ns_[static_cast<std::size_t>(v)] = steady_ns();
}

std::int64_t MutableFeatureStore::append_row(std::span<const float> values) {
  validate_row(values);
  std::unique_lock lock(mutex_);
  extension_.resize(extension_.size() + record_bytes_);
  encode(values.data(), extension_.data() + extension_.size() - record_bytes_);
  released_.push_back(0);
  touch_ns_.push_back(steady_ns());
  ++extension_rows_;
  return base_rows_ + extension_rows_ - 1;
}

void MutableFeatureStore::release_row(VertexId v) {
  const std::vector<float> zeros(static_cast<std::size_t>(cols_), 0.0f);
  std::unique_lock lock(mutex_);
  check_row(v);
  encode(zeros.data(), record_unlocked(v));
  if (v >= base_rows_) {
    char& flag = released_[static_cast<std::size_t>(v - base_rows_)];
    if (flag == 0) {
      flag = 1;
      ++released_count_;
    }
  }
}

void MutableFeatureStore::reuse_row(VertexId v, std::span<const float> values) {
  validate_row(values);
  std::unique_lock lock(mutex_);
  if (v < base_rows_ || v >= base_rows_ + extension_rows_)
    throw std::logic_error("MutableFeatureStore::reuse_row: not an extension row");
  char& flag = released_[static_cast<std::size_t>(v - base_rows_)];
  if (flag == 0)
    throw std::logic_error("MutableFeatureStore::reuse_row: row was not released");
  flag = 0;
  --released_count_;
  encode(values.data(), record_unlocked(v));
  touch_ns_[static_cast<std::size_t>(v)] = steady_ns();
}

std::int64_t MutableFeatureStore::released_rows() const {
  std::shared_lock lock(mutex_);
  return released_count_;
}

std::int64_t MutableFeatureStore::last_touch_ns(VertexId v) const {
  std::shared_lock lock(mutex_);
  check_row(v);
  return touch_ns_[static_cast<std::size_t>(v)];
}

void MutableFeatureStore::touch(VertexId v) {
  std::unique_lock lock(mutex_);
  check_row(v);
  touch_ns_[static_cast<std::size_t>(v)] = steady_ns();
}

void MutableFeatureStore::touch_rows(std::span<const VertexId> nodes) const {
  // Lock-free pre-scan: base_rows_ is immutable after construction, so
  // a request that names no extension rows (static serving, cache-hot
  // dataset traffic) is detected and skipped without touching the
  // mutex.
  bool any = false;
  for (VertexId v : nodes) {
    if (v >= base_rows_) {
      any = true;
      break;
    }
  }
  if (!any) return;
  // One stamp and one exclusive section per gather batch: duplicates
  // are re-stamped harmlessly, and everything in the batch shares the
  // same "read now" instant.
  const std::int64_t now = steady_ns();
  std::unique_lock lock(mutex_);
  const std::int64_t end = base_rows_ + extension_rows_;
  for (VertexId v : nodes) {
    if (v >= base_rows_ && v < end) touch_ns_[static_cast<std::size_t>(v)] = now;
  }
}

void MutableFeatureStore::copy_record(VertexId v, std::byte* dst) const {
  std::shared_lock lock(mutex_);
  check_row(v);
  std::memcpy(dst, record_unlocked(v), record_bytes_);
}

void MutableFeatureStore::gather(std::span<const VertexId> nodes, Tensor& out,
                                 const std::vector<char>* already_filled) const {
  // Tensor::resize zero-fills; skip it when `out` is already shaped so
  // rows the caller pre-filled (cache hits) survive.
  if (out.rows() != static_cast<std::int64_t>(nodes.size()) || out.cols() != cols_) {
    out.resize(static_cast<std::int64_t>(nodes.size()), cols_);
  }
  std::shared_lock lock(mutex_);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (already_filled != nullptr && (*already_filled)[i]) continue;
    check_row(nodes[i]);
    decode(record_unlocked(nodes[i]), out.row(static_cast<std::int64_t>(i)).data());
  }
}

}  // namespace hyscale
