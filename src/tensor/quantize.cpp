#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

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

double quantize_roundtrip_int8(Tensor& x) {
  const Tensor original = x;
  std::vector<std::int8_t> values(static_cast<std::size_t>(x.cols()));
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    float* row = x.data() + i * x.cols();
    const float scale = int8_row_scale(row, x.cols());
    quantize_row_int8(row, x.cols(), scale, values.data());
    simd::dequant(values.data(), scale, row, x.cols());
  }
  return Tensor::max_abs_diff(original, x);
}

}  // namespace hyscale
