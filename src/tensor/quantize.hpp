// Feature quantization for PCIe transfer compression.
//
// The paper's future-work section (§VIII) proposes "techniques like data
// quantization to relieve the stress on the PCIe bandwidth" — the stated
// fix for its Data-Transfer-bound limitation.  This module implements
// that extension: per-row symmetric quantization of feature matrices to
// int8 (or fp16-equivalent 2-byte) payloads before the PCIe hop, with
// dequantization on the device side.
//
// Per-row scaling keeps the quantization error proportional to each
// vertex's feature magnitude, which is what makes int8 transfers
// accuracy-neutral for GNN inputs in practice.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace hyscale {

enum class TransferPrecision : int {
  kFp32 = 4,  ///< no compression
  kFp16 = 2,  ///< 2 bytes/element on the wire
  kInt8 = 1,  ///< 1 byte/element + one fp32 scale per row
};

const char* transfer_precision_name(TransferPrecision precision);

/// Bytes per element on the PCIe wire for a precision.
inline double wire_bytes_per_element(TransferPrecision precision) {
  return static_cast<double>(static_cast<int>(precision));
}

/// Per-row symmetric int8 quantization: q[i,j] = round(x[i,j]/scale[i]),
/// scale[i] = max_j |x[i,j]| / 127.
struct QuantizedRows {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int8_t> values;
  std::vector<float> scales;  ///< one per row

  double wire_bytes() const {
    return static_cast<double>(values.size()) + static_cast<double>(scales.size()) * 4.0;
  }
};

QuantizedRows quantize_int8(const Tensor& x);

/// Reconstructs the float matrix.  A pre-sized `out` of the right shape
/// is written in place (no reallocation — the fused hot path dequants
/// into a pre-allocated batch tensor); an empty `out` is resized; a
/// non-empty `out` of the WRONG shape throws std::invalid_argument
/// instead of silently discarding the caller's sizing.
void dequantize_int8(const QuantizedRows& q, Tensor& out);

// ---- per-row primitives (the int8 MutableFeatureStore encodes every
// row with these, and quantize_int8 uses the same rule, so a stored row
// decodes to exactly quantize_roundtrip_int8 of the values written) ----

/// Symmetric per-row scale: max_j |row[j]| / 127, 1 for all-zero rows.
float int8_row_scale(const float* row, std::int64_t n);

/// Quantizes one row: dst[j] = clamp(round(src[j]/scale), -127, 127)
/// with round-half-AWAY-from-zero (std::round) — independent of the
/// ambient FP rounding mode, unlike std::nearbyint, so quantized values
/// are identical across threads and platforms.
void quantize_row_int8(const float* src, std::int64_t n, float scale, std::int8_t* dst);

/// Round-trips x through int8 quantization in place (what the device
/// trainer actually sees); returns the max absolute reconstruction error.
double quantize_roundtrip_int8(Tensor& x);

}  // namespace hyscale
