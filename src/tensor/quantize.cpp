#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/simd.hpp"

namespace hyscale {

const char* transfer_precision_name(TransferPrecision precision) {
  switch (precision) {
    case TransferPrecision::kFp32: return "fp32";
    case TransferPrecision::kFp16: return "fp16";
    case TransferPrecision::kInt8: return "int8";
  }
  return "?";
}

float int8_row_scale(const float* row, std::int64_t n) {
  const float max_abs = simd::max_abs(row, n);
  return max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
}

void quantize_row_int8(const float* src, std::int64_t n, float scale, std::int8_t* dst) {
  for (std::int64_t j = 0; j < n; ++j) {
    // clamp(std::round(x)), half away from zero, with no libm call or
    // branch so the loop vectorizes: truncate, then step away from zero
    // by trunc(2·frac) — frac = x - trunc(x) is exact, so this is bit
    // for bit std::round.  The fabs/min/copysign clamp keeps trunc
    // int-safe without folding to constants that would split the loop.
    // Nothing here follows the FP rounding mode (std::nearbyint did).
    const float x = src[j] / scale;
    const float clamped = std::copysign(std::min(std::fabs(x), 127.0f), x);
    const int whole = static_cast<int>(clamped);
    const float frac = clamped - static_cast<float>(whole);
    dst[j] = static_cast<std::int8_t>(whole + static_cast<int>(2.0f * frac));
  }
}

QuantizedRows quantize_int8(const Tensor& x) {
  QuantizedRows q;
  q.rows = x.rows();
  q.cols = x.cols();
  q.values.resize(static_cast<std::size_t>(x.size()));
  q.scales.resize(static_cast<std::size_t>(x.rows()));
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    const float* row = x.data() + i * x.cols();
    const float scale = int8_row_scale(row, x.cols());
    q.scales[static_cast<std::size_t>(i)] = scale;
    quantize_row_int8(row, x.cols(), scale, q.values.data() + i * x.cols());
  }
  return q;
}

void dequantize_int8(const QuantizedRows& q, Tensor& out) {
  if (out.rows() != q.rows || out.cols() != q.cols) {
    if (!out.empty())
      throw std::invalid_argument("dequantize_int8: pre-sized out has the wrong shape");
    out.resize(q.rows, q.cols);
  }
  for (std::int64_t i = 0; i < q.rows; ++i) {
    simd::dequant(q.values.data() + i * q.cols, q.scales[static_cast<std::size_t>(i)],
                  out.data() + i * q.cols, q.cols);
  }
}

double quantize_roundtrip_int8(Tensor& x) {
  const QuantizedRows q = quantize_int8(x);
  Tensor reconstructed;
  dequantize_int8(q, reconstructed);
  const double error = Tensor::max_abs_diff(x, reconstructed);
  x = std::move(reconstructed);
  return error;
}

}  // namespace hyscale
