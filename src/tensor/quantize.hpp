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

// ---- per-row int8 primitives: the one int8 row format.  The int8
// MutableFeatureStore encodes every row with these, and
// quantize_roundtrip_int8 applies them row by row, so a stored row decodes
// to exactly quantize_roundtrip_int8 of the values written ----

/// Symmetric per-row scale: max_j |row[j]| / 127, 1 for all-zero rows.
float int8_row_scale(const float* row, std::int64_t n);

/// Quantizes one row: dst[j] = clamp(round(src[j]/scale), -127, 127)
/// with round-half-AWAY-from-zero (std::round) — independent of the
/// ambient FP rounding mode, unlike std::nearbyint, so quantized values
/// are identical across threads and platforms.  Every src[j] must be
/// finite: a NaN or ±inf reaches the int cast, which is undefined
/// behaviour (MutableFeatureStore rejects such rows before encoding).
void quantize_row_int8(const float* src, std::int64_t n, float scale, std::int8_t* dst);

/// Round-trips x through int8 quantization in place (what the device
/// trainer actually sees), one row at a time: row scale, quantize, then
/// simd::dequant.  Returns the max absolute reconstruction error,
/// Tensor::max_abs_diff of the input and the result.
double quantize_roundtrip_int8(Tensor& x);

}  // namespace hyscale
