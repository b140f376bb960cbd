// Tests for tensor/quantize: the §VIII data-quantization extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

#include "graph/datasets.hpp"
#include "runtime/hybrid_trainer.hpp"
#include "tensor/init.hpp"
#include "tensor/quantize.hpp"

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
  Tensor x(1, 2);
  x.at(0, 0) = 127.0f;
  x.at(0, 1) = -127.0f;
  const QuantizedRows q = quantize_int8(x);
  EXPECT_EQ(q.values[0], 127);
  EXPECT_EQ(q.values[1], -127);
  EXPECT_FLOAT_EQ(q.scales[0], 1.0f);
}

TEST(Quantize, WireBytesAreElementPlusScales) {
  Tensor x(10, 16);
  uniform_init(x, -1, 1, 2);
  const QuantizedRows q = quantize_int8(x);
  EXPECT_DOUBLE_EQ(q.wire_bytes(), 10.0 * 16.0 + 10.0 * 4.0);
  // 4x smaller than fp32 (minus scale overhead).
  EXPECT_LT(q.wire_bytes(), x.size() * 4.0 / 3.0);
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

TEST(Quantize, SharedRowRuleMatchesBulkQuantizer) {
  Tensor x(4, 17);
  uniform_init(x, -3.0f, 3.0f, 7);
  const QuantizedRows q = quantize_int8(x);
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    const float scale = int8_row_scale(x.row(i).data(), x.cols());
    EXPECT_FLOAT_EQ(scale, q.scales[static_cast<std::size_t>(i)]);
    // The per-row quantizer the int8 feature store encodes with must
    // reproduce the bulk quantizer's values exactly.
    std::vector<std::int8_t> row(static_cast<std::size_t>(x.cols()));
    quantize_row_int8(x.row(i).data(), x.cols(), scale, row.data());
    for (std::int64_t j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(row[static_cast<std::size_t>(j)],
                q.values[static_cast<std::size_t>(i * x.cols() + j)]);
    }
  }
}

TEST(Quantize, DequantizeHonorsPresizedDestination) {
  Tensor x(5, 8);
  uniform_init(x, -2.0f, 2.0f, 3);
  const QuantizedRows q = quantize_int8(x);

  Tensor presized(5, 8, 42.0f);
  const float* storage = presized.flat().data();
  dequantize_int8(q, presized);
  // Written in place: same storage, no reallocation, values overwritten.
  EXPECT_EQ(presized.flat().data(), storage);
  EXPECT_LT(Tensor::max_abs_diff(presized, x), 2.0f / 127.0f + 1e-6f);

  Tensor empty;
  dequantize_int8(q, empty);  // empty destinations are resized, as before
  EXPECT_EQ(empty.rows(), 5);
  EXPECT_EQ(empty.cols(), 8);

  Tensor wrong(3, 8, 0.0f);  // regression: was silently resized away
  EXPECT_THROW(dequantize_int8(q, wrong), std::invalid_argument);
}

TEST(Quantize, Int8TransfersShrinkTransferStage) {
  MaterializeOptions options;
  options.target_vertices = 1 << 11;
  options.label_signal = false;
  const Dataset ds = materialize_dataset("ogbn-products", options);

  auto transfer_time = [&](TransferPrecision precision) {
    HybridTrainerConfig config;
    config.real_compute = false;
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
