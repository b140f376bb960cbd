// Tests for tensor/quantize: the §VIII data-quantization extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

#include "graph/datasets.hpp"
#include "runtime/hybrid_trainer.hpp"
#include "tensor/init.hpp"
#include "tensor/quantize.hpp"
#include "tensor/simd.hpp"

namespace hyscale {
namespace {

TEST(Quantize, RoundTripErrorBoundedByHalfStep) {
  Tensor x(32, 64);
  uniform_init(x, -5.0f, 5.0f, 1);
  Tensor original = x;
  const double error = quantize_roundtrip_int8(x);
  // Per-row error bound: scale/2 = max|row| / 254.
  for (std::int64_t i = 0; i < original.rows(); ++i) {
    float max_abs = 0.0f;
    for (std::int64_t j = 0; j < original.cols(); ++j)
      max_abs = std::max(max_abs, std::abs(original.at(i, j)));
    for (std::int64_t j = 0; j < original.cols(); ++j) {
      EXPECT_LE(std::abs(original.at(i, j) - x.at(i, j)), max_abs / 254.0f + 1e-6f);
    }
  }
  EXPECT_GT(error, 0.0);
  EXPECT_LT(error, 5.0 / 127.0 + 1e-6);
}

TEST(Quantize, ZeroRowsSurviveExactly) {
  Tensor x(3, 4, 0.0f);
  const double error = quantize_roundtrip_int8(x);
  EXPECT_DOUBLE_EQ(error, 0.0);
  for (float v : x.flat()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Quantize, ExtremesMapToFullRange) {
  const float row[2] = {127.0f, -127.0f};
  const float scale = int8_row_scale(row, 2);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  std::int8_t q[2] = {};
  quantize_row_int8(row, 2, scale, q);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -127);
}

TEST(Quantize, PrecisionNamesAndWireBytes) {
  EXPECT_STREQ(transfer_precision_name(TransferPrecision::kInt8), "int8");
  EXPECT_DOUBLE_EQ(wire_bytes_per_element(TransferPrecision::kFp32), 4.0);
  EXPECT_DOUBLE_EQ(wire_bytes_per_element(TransferPrecision::kFp16), 2.0);
  EXPECT_DOUBLE_EQ(wire_bytes_per_element(TransferPrecision::kInt8), 1.0);
}

TEST(Quantize, RoundingIsIndependentOfFpRoundingMode) {
  // Regression: quantize used std::nearbyint, which honors the ambient
  // FP rounding mode — a thread (or library) that flips the mode would
  // silently change quantized features.  std::round is pinned to
  // half-away-from-zero under every mode.
  const float src[6] = {2.5f, -2.5f, 1.5f, -1.5f, 0.5f, -0.5f};
  const std::int8_t expected[6] = {3, -3, 2, -2, 1, -1};
  const int modes[] = {FE_TONEAREST, FE_DOWNWARD, FE_UPWARD, FE_TOWARDZERO};
  const int saved = std::fegetround();
  for (const int mode : modes) {
    ASSERT_EQ(std::fesetround(mode), 0);
    std::int8_t dst[6] = {};
    quantize_row_int8(src, 6, 1.0f, dst);
    for (int j = 0; j < 6; ++j) {
      EXPECT_EQ(dst[j], expected[j]) << "mode=" << mode << " j=" << j;
    }
  }
  std::fesetround(saved);
}

TEST(Quantize, RowQuantizerMatchesStdRoundOracleBitForBit) {
  // quantize_row_int8 rounds by truncate-and-step so its loop
  // vectorizes; on every finite input it must equal the libm oracle
  // clamp(std::round(x / scale)) it replaced.
  const auto oracle = [](float x, float scale) {
    return static_cast<std::int8_t>(std::clamp(std::round(x / scale), -127.0f, 127.0f));
  };
  const auto expect_matches = [&](const std::vector<float>& xs, float scale) {
    std::vector<std::int8_t> got(xs.size());
    quantize_row_int8(xs.data(), static_cast<std::int64_t>(xs.size()), scale, got.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(got[i], oracle(xs[i], scale)) << "x=" << xs[i] << " scale=" << scale;
    }
  };

  // Every half-integer in [-128.5, 128.5], one ulp either side of it,
  // and both zeros: the rounding and clamping boundaries.
  std::vector<float> edges = {0.0f, -0.0f};
  const float inf = std::numeric_limits<float>::infinity();
  for (int twice = -257; twice <= 257; twice += 2) {
    const float half = static_cast<float>(twice) * 0.5f;
    edges.push_back(half);
    edges.push_back(std::nextafter(half, inf));
    edges.push_back(std::nextafter(half, -inf));
  }
  expect_matches(edges, 1.0f);

  // 10^6 seeded values in rows of 100, each with its own scale: half
  // drawn over the int8 range and past it, half from random finite bit
  // patterns (every exponent, subnormals included).
  Xoshiro256 rng(20250523);
  std::vector<float> row(100);
  for (int r = 0; r < 10'000; ++r) {
    for (float& x : row) {
      if (rng.bounded(2) == 0) {
        x = static_cast<float>(rng.uniform(-200.0, 200.0));
      } else {
        do {
          x = std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
        } while (!std::isfinite(x));
      }
    }
    const float scale = r % 2 == 0 ? 1.0f : int8_row_scale(row.data(), 100);
    expect_matches(row, scale);
  }
}

TEST(Quantize, RoundTripIsTheRowPrimitivesInPlace) {
  // quantize_roundtrip_int8 is the int8 store's oracle: each row must
  // decode to simd::dequant(quantize_row_int8(row, int8_row_scale(row)))
  // bit for bit, written over x's own storage, and the error it returns
  // must be Tensor::max_abs_diff of the input and the result.  Odd widths
  // cover the vector bodies and their tails; row 1 is all zero.
  for (const std::int64_t cols : {1, 17, 100}) {
    Tensor x(4, cols);
    uniform_init(x, -3.0f, 3.0f, 7 + static_cast<std::uint64_t>(cols));
    for (float& v : x.row(1)) v = 0.0f;
    const Tensor original = x;
    const float* storage = x.flat().data();
    const double error = quantize_roundtrip_int8(x);
    EXPECT_EQ(x.flat().data(), storage);
    EXPECT_EQ(error, Tensor::max_abs_diff(original, x));
    for (std::int64_t i = 0; i < x.rows(); ++i) {
      const float* row = original.row(i).data();
      const float scale = int8_row_scale(row, cols);
      std::vector<std::int8_t> q(static_cast<std::size_t>(cols));
      std::vector<float> expected(static_cast<std::size_t>(cols));
      quantize_row_int8(row, cols, scale, q.data());
      simd::dequant(q.data(), scale, expected.data(), cols);
      for (std::int64_t j = 0; j < cols; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(x.at(i, j)),
                  std::bit_cast<std::uint32_t>(expected[static_cast<std::size_t>(j)]))
            << "cols=" << cols << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Quantize, Int8TransfersShrinkTransferStage) {
  MaterializeOptions options;
  options.target_vertices = 1 << 11;
  options.label_signal = false;
  const Dataset ds = materialize_dataset("ogbn-products", options);

  auto transfer_time = [&](TransferPrecision precision) {
    HybridTrainerConfig config;
    config.real_iterations_cap = 0;
    config.drm = false;
    config.transfer_precision = precision;
    HybridTrainer trainer(ds, cpu_fpga_platform(4), config);
    return trainer.train_epoch().mean_times.transfer;
  };
  const Seconds fp32 = transfer_time(TransferPrecision::kFp32);
  const Seconds int8 = transfer_time(TransferPrecision::kInt8);
  EXPECT_LT(int8, fp32);
  EXPECT_GT(int8, fp32 / 6.0);  // topology bytes and latency remain
}

TEST(Quantize, Int8TrainingStillConverges) {
  const Dataset ds = make_community_dataset(3, 96, 12, 5);
  HybridTrainerConfig config;
  config.model_kind = GnnKind::kSage;
  config.fanouts = {5, 5};
  config.learning_rate = 0.3;
  config.real_batch_total = 96;
  config.real_iterations_cap = 30;
  config.per_trainer_batch = 256;
  config.transfer_precision = TransferPrecision::kInt8;
  HybridTrainer trainer(ds, cpu_fpga_platform(2), config);
  const double first = trainer.train_epoch().loss;
  for (int e = 0; e < 5; ++e) trainer.train_epoch();
  const double last = trainer.train_epoch().loss;
  EXPECT_LT(last, first);
  EXPECT_GT(trainer.evaluate_accuracy(), 0.55);
}

}  // namespace
}  // namespace hyscale
