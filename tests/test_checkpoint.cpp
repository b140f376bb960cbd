// Tests for nn/checkpoint (including a seeded corrupt-file harness) and
// the feature loader's accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/rng.hpp"
#include "corrupt_file.hpp"
#include "graph/datasets.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "runtime/feature_loader.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "tensor/init.hpp"

namespace hyscale {
namespace {

ModelConfig sage_config() {
  ModelConfig config;
  config.kind = GnnKind::kSage;
  config.dims = {12, 16, 5};
  config.seed = 3;
  return config;
}

TEST(Checkpoint, RoundTripRestoresExactWeights) {
  GnnModel model(sage_config());
  const std::string path = "/tmp/hyscale_ckpt_test.bin";
  save_checkpoint(model, path);

  GnnModel other(sage_config());
  // Perturb, then restore.
  for (auto* p : other.parameters()) normal_init(p->value, 1.0f, 777);
  load_checkpoint(other, path);

  const auto a = model.parameters();
  const auto b = other.parameters();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a[i]->value, b[i]->value), 0.0);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ArchitectureMismatchThrows) {
  GnnModel model(sage_config());
  const std::string path = "/tmp/hyscale_ckpt_mismatch.bin";
  save_checkpoint(model, path);

  ModelConfig different = sage_config();
  different.dims = {12, 32, 5};  // wider hidden layer
  GnnModel other(different);
  EXPECT_THROW(load_checkpoint(other, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingAndCorruptFilesThrow) {
  GnnModel model(sage_config());
  EXPECT_THROW(load_checkpoint(model, "/tmp/does_not_exist_ckpt.bin"), std::runtime_error);
  const std::string path = "/tmp/hyscale_ckpt_corrupt.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_THROW(load_checkpoint(model, path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- seeded corruption harness: every malformed checkpoint ends in a
// std::runtime_error, and a failed load leaves the model bit-identical.

namespace corrupt = testing_corrupt;

constexpr std::size_t kCkptHeaderBytes = 16;  // magic, parameter count

/// Loads corrupt checkpoints into a seed-99 model and checks, after
/// every load that throws, that its parameters are bit-identical to
/// what they were before.
class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "hyscale_ckpt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
    save_checkpoint(GnnModel(sage_config()), path_);
    valid_ = corrupt::read_file(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Byte offset of each parameter's (rows, cols) shape record.
  std::vector<std::size_t> shape_offsets() const {
    std::vector<std::size_t> offsets;
    std::size_t at = kCkptHeaderBytes;
    for (const Param* param : target_.parameters()) {
      offsets.push_back(at);
      at += 16 + static_cast<std::size_t>(param->value.size()) * sizeof(float);
    }
    return offsets;
  }

  /// Loads `bytes` into the target model and records any break of the
  /// contract: a foreign exception, an unexpected success, or a failed
  /// load that changed the model.
  void try_load(const std::string& input, const std::vector<char>& bytes, bool may_load) {
    corrupt::write_file(path_, bytes);
    const std::vector<char> before = snapshot();
    bool threw = true;
    std::string escape = corrupt::escape_of(
        [&] {
          load_checkpoint(target_, path_);
          threw = false;
        },
        may_load);
    if (escape.empty() && threw && snapshot() != before) escape = "threw but tore the model";
    log_.record(input, escape);
  }

  /// The target's parameter bytes, so equality is bit-identity (NaNs
  /// loaded by an earlier payload flip included).
  std::vector<char> snapshot() const {
    std::vector<char> bytes;
    for (const Param* param : target_.parameters()) {
      const auto* begin = reinterpret_cast<const char*>(param->value.data());
      bytes.insert(bytes.end(), begin,
                   begin + static_cast<std::size_t>(param->value.size()) * sizeof(float));
    }
    return bytes;
  }

  std::string path_;
  std::vector<char> valid_;
  GnnModel target_{[] {
    ModelConfig config = sage_config();
    config.seed = 99;
    return config;
  }()};
  corrupt::EscapeLog log_;
};

TEST_F(CheckpointCorruption, EveryTruncationThrowsAndLeavesModelUntouched) {
  for (std::size_t len = 0; len < valid_.size(); ++len) {
    try_load("truncated to " + std::to_string(len),
             std::vector<char>(valid_.begin(), valid_.begin() + static_cast<std::ptrdiff_t>(len)),
             false);
  }
  EXPECT_TRUE(log_.escapes.empty()) << log_.summary();
}

TEST_F(CheckpointCorruption, EveryHeaderAndShapeBitFlipThrowsAndLeavesModelUntouched) {
  for (std::size_t bit = 0; bit < 8 * kCkptHeaderBytes; ++bit) {
    try_load("header bit " + std::to_string(bit), corrupt::flip_bit(valid_, bit), false);
  }
  for (const std::size_t offset : shape_offsets()) {
    for (std::size_t bit = 8 * offset; bit < 8 * (offset + 16); ++bit) {
      try_load("shape bit " + std::to_string(bit), corrupt::flip_bit(valid_, bit), false);
    }
  }
  EXPECT_TRUE(log_.escapes.empty()) << log_.summary();
}

TEST_F(CheckpointCorruption, OversizedShapesThrowAndLeaveModelUntouched) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t size : {std::uint64_t{1} << 40, kMax >> 1, kMax}) {
    try_load("count=" + std::to_string(size), corrupt::with_u64(valid_, 8, size), false);
    for (const std::size_t offset : shape_offsets()) {
      try_load("rows@" + std::to_string(offset) + "=" + std::to_string(size),
               corrupt::with_u64(valid_, offset, size), false);
      try_load("cols@" + std::to_string(offset) + "=" + std::to_string(size),
               corrupt::with_u64(valid_, offset + 8, size), false);
    }
  }
  EXPECT_TRUE(log_.escapes.empty()) << log_.summary();
}

TEST_F(CheckpointCorruption, AppendedByteThrowsAndLeavesModelUntouched) {
  std::vector<char> bytes = valid_;
  bytes.push_back('\0');
  try_load("one appended byte", bytes, false);
  EXPECT_TRUE(log_.escapes.empty()) << log_.summary();
}

TEST_F(CheckpointCorruption, PayloadBitFlipsLoadOrThrowRuntimeError) {
  // Format v1 has no checksum: a flipped float is a different, loadable
  // model.  A seeded sample of payload bits must each load or be
  // rejected cleanly, never escape as another exception type.
  const std::vector<std::size_t> shapes = shape_offsets();
  Xoshiro256 rng(16);
  for (int pick = 0; pick < 1024; ++pick) {
    const std::size_t bit = 8 * kCkptHeaderBytes + rng.bounded(8 * (valid_.size() - kCkptHeaderBytes));
    const bool in_shape = std::any_of(shapes.begin(), shapes.end(), [&](std::size_t offset) {
      return bit >= 8 * offset && bit < 8 * (offset + 16);
    });
    if (in_shape) continue;
    try_load("payload bit " + std::to_string(bit), corrupt::flip_bit(valid_, bit), true);
  }
  EXPECT_GT(log_.inputs, 900);
  EXPECT_TRUE(log_.escapes.empty()) << log_.summary();
}

TEST(FeatureLoader, GathersCorrectRowsAndCountsBytes) {
  const Dataset ds = make_community_dataset(3, 32, 8, 2);
  NeighborSampler sampler(ds.graph, {3, 3}, 1);
  std::vector<VertexId> seeds = {0, 5, 40};
  const MiniBatch batch = sampler.sample(seeds);

  FeatureLoader loader(ds.features);
  Tensor x;
  loader.load(batch, x);
  ASSERT_EQ(x.rows(), batch.blocks.front().num_src());
  ASSERT_EQ(x.cols(), 8);
  // Row i of X' is the feature row of input node i.
  for (std::size_t i = 0; i < batch.input_nodes().size(); ++i) {
    const VertexId v = batch.input_nodes()[i];
    for (std::int64_t j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(x.at(static_cast<std::int64_t>(i), j), ds.features.at(v, j));
    }
  }
  EXPECT_DOUBLE_EQ(loader.last_bytes(), static_cast<double>(x.size()) * 4.0);
  const double first = loader.total_bytes();
  loader.load(batch, x);
  EXPECT_DOUBLE_EQ(loader.total_bytes(), first + loader.last_bytes());
}

}  // namespace
}  // namespace hyscale
