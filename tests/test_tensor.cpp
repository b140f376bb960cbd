// Tests for tensor/: Tensor, GEMM (vs. naive reference), ops, init.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace hyscale {
namespace {

Tensor random_tensor(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Tensor t(r, c);
  uniform_init(t, -1.0f, 1.0f, seed);
  return t;
}

// Naive triple-loop reference.
Tensor naive_gemm(const Tensor& a, bool ta, const Tensor& b, bool tb, float alpha,
                  float beta, const Tensor& c0) {
  const std::int64_t m = ta ? a.cols() : a.rows();
  const std::int64_t k = ta ? a.rows() : a.cols();
  const std::int64_t n = tb ? b.rows() : b.cols();
  Tensor c = c0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        sum += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(alpha * sum + beta * c0.at(i, j));
    }
  }
  return c;
}

TEST(Tensor, ShapeAndFill) {
  Tensor t(3, 4, 2.0f);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  EXPECT_FLOAT_EQ(t.at(2, 3), 2.0f);
  t.zero();
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
}

TEST(Tensor, RowSpanIsContiguous) {
  Tensor t(2, 3);
  t.at(1, 0) = 5.0f;
  t.at(1, 2) = 7.0f;
  auto row = t.row(1);
  EXPECT_FLOAT_EQ(row[0], 5.0f);
  EXPECT_FLOAT_EQ(row[2], 7.0f);
}

TEST(Tensor, NormAndDiff) {
  Tensor a(1, 2);
  a.at(0, 0) = 3.0f;
  a.at(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  Tensor b = a;
  b.at(0, 1) = 6.0f;
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 2.0);
  Tensor c(2, 1);
  EXPECT_THROW(Tensor::max_abs_diff(a, c), std::invalid_argument);
}

TEST(Tensor, MaxAbsDiffSeesNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a(1, 4);
  a.at(0, 0) = 1.0f;
  a.at(0, 1) = nan;
  a.at(0, 2) = inf;
  a.at(0, 3) = -inf;
  // Both NaN and equal infinities count as equal.
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, a), 0.0);
  Tensor b = a;
  b.at(0, 0) = 1.5f;
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 0.5);
  // Exactly one side NaN: +inf, whichever side and wherever it sits.
  b.at(0, 1) = 0.0f;
  EXPECT_EQ(Tensor::max_abs_diff(a, b), inf);
  EXPECT_EQ(Tensor::max_abs_diff(b, a), inf);
  Tensor c = a;
  c.at(0, 0) = nan;
  EXPECT_EQ(Tensor::max_abs_diff(a, c), inf);
  // An infinity facing a number, or the other infinity, is +inf too.
  Tensor d = a;
  d.at(0, 2) = 2.0f;
  d.at(0, 3) = inf;
  EXPECT_EQ(Tensor::max_abs_diff(a, d), inf);
}

TEST(Tensor, NegativeShapeThrows) {
  EXPECT_THROW(Tensor(-1, 2), std::invalid_argument);
}

struct GemmCase {
  std::int64_t m, k, n;
  bool ta, tb;
  float alpha, beta;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const GemmCase params = GetParam();
  const Tensor a = params.ta ? random_tensor(params.k, params.m, 1)
                             : random_tensor(params.m, params.k, 1);
  const Tensor b = params.tb ? random_tensor(params.n, params.k, 2)
                             : random_tensor(params.k, params.n, 2);
  Tensor c = random_tensor(params.m, params.n, 3);
  const Tensor expected = naive_gemm(a, params.ta, b, params.tb, params.alpha, params.beta, c);
  gemm(a, params.ta, b, params.tb, c, params.alpha, params.beta);
  EXPECT_LT(Tensor::max_abs_diff(c, expected), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmCase{4, 5, 6, false, false, 1.0f, 0.0f},
                      GemmCase{4, 5, 6, true, false, 1.0f, 0.0f},
                      GemmCase{4, 5, 6, false, true, 1.0f, 0.0f},
                      GemmCase{4, 5, 6, true, true, 1.0f, 0.0f},
                      GemmCase{1, 1, 1, false, false, 2.0f, 0.5f},
                      GemmCase{17, 33, 9, false, false, 1.0f, 1.0f},
                      GemmCase{64, 200, 48, false, false, 1.0f, 0.0f},
                      GemmCase{100, 64, 32, true, false, 1.0f, 1.0f},
                      GemmCase{3, 300, 2, false, true, -1.0f, 0.0f}));

TEST(Gemm, RejectsShapeMismatch) {
  Tensor a(2, 3), b(4, 5), c(2, 5);
  EXPECT_THROW(gemm(a, false, b, false, c), std::invalid_argument);
  Tensor b2(3, 5), c_bad(3, 5);
  EXPECT_THROW(gemm(a, false, b2, false, c_bad), std::invalid_argument);
}

TEST(Gemm, LinearForwardAddsBias) {
  Tensor x(2, 3, 1.0f), w(3, 2, 1.0f), bias(1, 2);
  bias.at(0, 0) = 10.0f;
  bias.at(0, 1) = -1.0f;
  Tensor y;
  linear_forward(x, w, bias, y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 13.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 2.0f);
}

TEST(Gemm, LinearForwardIgnoresStaleOutput) {
  const Tensor x = random_tensor(5, 3, 1);
  const Tensor w = random_tensor(3, 4, 2);
  for (const Tensor& bias : {random_tensor(1, 4, 3), Tensor()}) {
    Tensor expected;
    linear_forward(x, w, bias, expected);
    // Same shape, so y is reused: inf and NaN left in it must not turn
    // the result into NaN (stale * 0).
    Tensor y(5, 4, std::numeric_limits<float>::infinity());
    y.at(2, 1) = std::numeric_limits<float>::quiet_NaN();
    linear_forward(x, w, bias, y);
    EXPECT_EQ(std::memcmp(y.data(), expected.data(), expected.size() * sizeof(float)), 0)
        << "bias " << !bias.empty() << " max diff " << Tensor::max_abs_diff(y, expected);
  }
}

TEST(Ops, GatherRows) {
  Tensor src(4, 2);
  for (std::int64_t i = 0; i < 4; ++i) src.at(i, 0) = static_cast<float>(i);
  const std::vector<std::int64_t> index = {3, 0, 3};
  Tensor out;
  gather_rows(src, index, out);
  ASSERT_EQ(out.rows(), 3);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 3.0f);
}

TEST(Ops, ReluForwardBackward) {
  Tensor x(1, 4);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 2.0f;
  x.at(0, 2) = 0.0f;
  x.at(0, 3) = -3.0f;
  Tensor y;
  relu_forward(x, y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f);
  Tensor dy(1, 4, 1.0f), dx;
  relu_backward(x, dy, dx);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 2), 0.0f);  // gradient at exactly 0 is 0
}

TEST(Ops, ReluBackwardBitIdenticalToScalarDefinition) {
  // The branch-free loop must give exactly `x > 0 ? dy : 0.0f`: x = +-0
  // and NaN select +0, and a kept dy passes through bit for bit, NaN and
  // +-inf included.  ReLU-sparse data (half of x <= 0) at an odd size
  // covers the vector body and its tail.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> special_x = {0.0f, -0.0f, nan, -nan, 1e-40f, -1e-40f, inf, -inf};
  const std::vector<float> special_dy = {nan, -nan, inf, -inf, 0.0f, -0.0f, 1e-40f};
  Tensor x = random_tensor(37, 19, 81);
  Tensor dy = random_tensor(37, 19, 82);
  auto px = x.flat();
  auto pdy = dy.flat();
  std::size_t at = 0;
  for (const float xv : special_x) {
    for (const float dv : special_dy) {
      px[at] = xv;
      pdy[at] = dv;
      at += 3;
    }
  }
  for (std::size_t i = 1; i < pdy.size(); i += 11) pdy[i] = special_dy[i % special_dy.size()];
  Tensor dx;
  relu_backward(x, dy, dx);
  ASSERT_EQ(dx.size(), x.size());
  for (std::size_t i = 0; i < px.size(); ++i) {
    const float expected = px[i] > 0.0f ? pdy[i] : 0.0f;
    EXPECT_EQ(std::memcmp(&dx.flat()[i], &expected, sizeof(float)), 0)
        << "i=" << i << " x=" << px[i] << " dy=" << pdy[i] << " dx=" << dx.flat()[i];
  }
}

TEST(Init, XavierBoundsRespectFanInOut) {
  Tensor w(100, 50);
  xavier_uniform(w, 1);
  const double bound = std::sqrt(6.0 / 150.0);
  for (float v : w.flat()) {
    EXPECT_LE(std::abs(v), bound + 1e-6);
  }
  // Not all zero.
  EXPECT_GT(w.norm(), 0.1);
}

TEST(Init, NormalStddev) {
  Tensor w(200, 200);
  normal_init(w, 0.5f, 3);
  double sum2 = 0.0;
  for (float v : w.flat()) sum2 += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(sum2 / 40000.0), 0.5, 0.02);
}

TEST(Init, NormalInitMatchesSequentialNormalStream) {
  // The pooled fill must give the bits of one normal() call per element,
  // in order, at every size around the chunk boundary.
  constexpr std::size_t kChunk = kNormalInitChunk;
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                                 3 * kChunk + 5}) {
    for (const float stddev : {1.0f, 0.37f}) {
      Tensor w(1, static_cast<std::int64_t>(size));
      normal_init(w, stddev, 42 + size);
      Xoshiro256 rng(42 + size);
      std::vector<std::uint32_t> got, want;
      for (const float v : w.flat()) got.push_back(std::bit_cast<std::uint32_t>(v));
      for (std::size_t i = 0; i < size; ++i)
        want.push_back(std::bit_cast<std::uint32_t>(static_cast<float>(rng.normal() * stddev)));
      EXPECT_EQ(got, want) << "size " << size << " stddev " << stddev;
    }
  }
}

TEST(Init, Deterministic) {
  Tensor a(10, 10), b(10, 10);
  xavier_uniform(a, 7);
  xavier_uniform(b, 7);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 0.0);
}

}  // namespace
}  // namespace hyscale
