// Hot-path gather overhaul tests (PR 8):
//   * SIMD-vs-scalar bit-identity for the dispatched kernels across odd
//     row widths and unaligned spans (the differential harness's fp32
//     guarantee depends on it);
//   * GEMM bit-identity against the scalar oracle on every tier the CPU
//     supports (force_tier seam): all four layouts, row and column
//     tails, k = 1, signed zeros, ReLU-sparse A, alpha/beta != 1, and
//     the masked path: zeros opposite +-inf/NaN, tiles mixing dense
//     and sparse steps, -0 kept under beta = 1, sparse row tails and
//     k crossing the 128-step k-block boundary (once and several times);
//   * the scalar oracle pinned to a hand-written std::fma chain, a case
//     where fused and unfused results must differ (for the GEMM and for
//     axpy), and single steps a double-precision shortcut or a special
//     value could get wrong, on every tier;
//   * int8 rows: every store write path serves exactly the round-tripped
//     values, a hit and a miss decode identical bytes (streaming and
//     static), wire-byte ratio (>= 3x vs fp32 at feature widths >= 12),
//     end-to-end logit exactness against an explicitly round-tripped
//     reference, and a backend refusing a precision its store lacks;
//   * adaptive cache re-ranking: observed-traffic admission recovers
//     the hit rate after churn, and slots freed by evict() are refilled;
//   * TSan regression: cached() and gathers racing
//     evict()/invalidate()/rerank().
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "core/hyscale.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/simd.hpp"

namespace hyscale {
namespace {

/// Restores the dispatching backend even when an assertion fails.
struct TierGuard {
  ~TierGuard() { simd::force_tier(simd::Tier::kBest); }
};

/// 96 vertices, 32-dim features (wide enough that int8's cols + 4 wire
/// rows beat fp32's 4 * cols by more than 3x).
const Dataset& hotpath_dataset() {
  static const Dataset ds = make_community_dataset(3, 32, 32, 5);
  return ds;
}

ModelConfig hotpath_model_config() {
  ModelConfig config;
  config.kind = GnnKind::kSage;
  config.dims = {32, 16, 3};
  config.seed = 13;
  return config;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-8.0f, 8.0f);
  std::vector<float> out(n);
  for (auto& v : out) v = dist(rng);
  // Salt in the awkward cases: zeros, tiny magnitudes, exact halves.
  if (n > 0) out[0] = 0.0f;
  if (n > 2) out[2] = 1e-38f;
  if (n > 4) out[4] = -2.5f;
  return out;
}

const std::int64_t kWidths[] = {1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100};
const std::size_t kOffsets[] = {0, 1, 3};

// -------------------------------------------------------------- simd kernels

TEST(Simd, BackendNameIsKnownAndForcedTierSticks) {
  TierGuard guard;
  const std::string name = simd::backend_name();
  EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "neon" || name == "scalar") << name;
  const std::vector<simd::Tier> tiers = simd::supported_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Tier::kScalar);
  EXPECT_EQ(name, simd::tier_name(tiers.back()));
  for (const simd::Tier tier : tiers) {
    simd::force_tier(tier);
    EXPECT_EQ(simd::forced_tier(), tier);
    EXPECT_EQ(simd::active_tier(), tier);
    EXPECT_STREQ(simd::backend_name(), simd::tier_name(tier));
  }
  simd::force_tier(simd::Tier::kBest);
  EXPECT_EQ(simd::forced_tier(), simd::Tier::kBest);
  EXPECT_EQ(simd::active_tier(), tiers.back());
}

TEST(Simd, CopyBitIdenticalAcrossWidthsAndAlignments) {
  TierGuard guard;
  for (const std::int64_t n : kWidths) {
    for (const std::size_t off : kOffsets) {
      const auto src = random_floats(off + static_cast<std::size_t>(n), 11u + off);
      std::vector<float> vec(static_cast<std::size_t>(n), -1.0f);
      std::vector<float> ref(static_cast<std::size_t>(n), -2.0f);
      simd::force_tier(simd::Tier::kBest);
      simd::copy(src.data() + off, vec.data(), n);
      simd::copy_scalar(src.data() + off, ref.data(), n);
      EXPECT_EQ(std::memcmp(vec.data(), ref.data(), ref.size() * sizeof(float)), 0)
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(Simd, AxpyBitIdenticalAcrossWidthsAndAlignments) {
  TierGuard guard;
  for (const simd::Tier tier : simd::supported_tiers()) {
    for (const std::int64_t n : kWidths) {
      for (const std::size_t off : kOffsets) {
        const auto x = random_floats(off + static_cast<std::size_t>(n), 23u + off);
        const auto y0 = random_floats(static_cast<std::size_t>(n), 29u * off + 7u);
        std::vector<float> vec = y0;
        std::vector<float> ref = y0;
        simd::force_tier(tier);
        simd::axpy(0.773f, x.data() + off, vec.data(), n);
        simd::axpy_scalar(0.773f, x.data() + off, ref.data(), n);
        EXPECT_EQ(std::memcmp(vec.data(), ref.data(), ref.size() * sizeof(float)), 0)
            << "tier " << simd::tier_name(tier) << " n=" << n << " off=" << off;
      }
    }
  }
}

// The GemmOracle case below, as an axpy: a = x = 1 + 2^-12 and
// y = -(1 + 2^-11).  Unfused, the product rounds to 1 + 2^-11 and the
// sum is 0; fused, it is 2^-24.  Every width in kWidths covers the
// vector bodies and their tails.
TEST(Simd, AxpyFusesWhereMulAddWouldNot) {
  TierGuard guard;
  const float x = 1.0f + std::ldexp(1.0f, -12);
  const float y = -(1.0f + std::ldexp(1.0f, -11));
  volatile float product = x * x;  // rounded on its own, never contracted into an FMA
  ASSERT_EQ(product + y, 0.0f) << "mul + add must round the product away";
  for (const simd::Tier tier : simd::supported_tiers()) {
    simd::force_tier(tier);
    for (const std::int64_t n : kWidths) {
      const std::vector<float> xs(static_cast<std::size_t>(n), x);
      std::vector<float> ys(static_cast<std::size_t>(n), y);
      simd::axpy(x, xs.data(), ys.data(), n);
      for (const float v : ys) {
        ASSERT_EQ(v, std::ldexp(1.0f, -24)) << "tier " << simd::tier_name(tier) << " n=" << n;
      }
    }
  }
  std::vector<float> ys(3, y);
  const std::vector<float> xs(3, x);
  simd::axpy_scalar(x, xs.data(), ys.data(), 3);
  EXPECT_EQ(ys[2], std::ldexp(1.0f, -24)) << "the scalar oracle fuses too";
}

TEST(Simd, DequantBitIdenticalAcrossWidthsAndAlignments) {
  TierGuard guard;
  for (const std::int64_t n : kWidths) {
    for (const std::size_t off : kOffsets) {
      std::vector<std::int8_t> q(off + static_cast<std::size_t>(n));
      std::mt19937_64 rng(41u + off);
      for (auto& v : q) v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
      std::vector<float> vec(static_cast<std::size_t>(n), 1.0f);
      std::vector<float> ref(static_cast<std::size_t>(n), 2.0f);
      simd::force_tier(simd::Tier::kBest);
      simd::dequant(q.data() + off, 0.0317f, vec.data(), n);
      simd::dequant_scalar(q.data() + off, 0.0317f, ref.data(), n);
      EXPECT_EQ(std::memcmp(vec.data(), ref.data(), ref.size() * sizeof(float)), 0)
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(Simd, MaxAbsBitIdenticalAcrossWidthsAndAlignments) {
  TierGuard guard;
  for (const std::int64_t n : kWidths) {
    for (const std::size_t off : kOffsets) {
      const auto src = random_floats(off + static_cast<std::size_t>(n), 53u + off);
      simd::force_tier(simd::Tier::kBest);
      const float vec = simd::max_abs(src.data() + off, n);
      const float ref = simd::max_abs_scalar(src.data() + off, n);
      EXPECT_EQ(std::memcmp(&vec, &ref, sizeof(float)), 0) << "n=" << n << " off=" << off;
    }
  }
}

TEST(Simd, ForcedScalarDispatchMatchesVectorDispatch) {
  // The per-call seam really flips the backend: both routes produce the
  // same bits, so the differential tests can trust either.
  TierGuard guard;
  const std::int64_t n = 100;
  const auto x = random_floats(static_cast<std::size_t>(n), 61);
  const auto y0 = random_floats(static_cast<std::size_t>(n), 67);
  std::vector<float> vec = y0;
  std::vector<float> forced = y0;
  simd::force_tier(simd::Tier::kBest);
  simd::axpy(-1.25f, x.data(), vec.data(), n);
  simd::force_tier(simd::Tier::kScalar);
  simd::axpy(-1.25f, x.data(), forced.data(), n);
  EXPECT_EQ(std::memcmp(vec.data(), forced.data(), forced.size() * sizeof(float)), 0);
}

// One GEMM differential case: C = alpha * op(A) * op(B) + beta * C with
// C(m x n) and inner dimension k.
struct GemmCase {
  const char* name;
  std::int64_t m, n, k;
  bool trans_a, trans_b;
  float alpha, beta;
  float a_zero_frac;  ///< share of A entries set to 0 (ReLU-sparse A)
  bool zero_a_row;    ///< op(A) row 0 all zeros, of both signs
  bool negative_c;    ///< C starts negative, so beta = 0 leaves -0.0f
  /// Only steps p with p % sparse_every == 0 draw zeros, so a tile mixes
  /// dense steps (plain FMA) with sparse ones (masked FMA).
  std::int64_t sparse_every = 1;
  /// op(A) column 0 all zeros opposite an op(B) row 0 of +-inf and NaN:
  /// every product there is NaN, and the zero skip must discard it.
  bool inf_opposite_zero = false;
  bool neg_zero_c = false;  ///< C starts as -0.0f: beta = 1 over a zero row keeps it
};

std::ostream& operator<<(std::ostream& os, const GemmCase& c) { return os << c.name; }

class GemmTiers : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTiers, BitIdenticalToScalarOracleOnEveryTier) {
  TierGuard guard;
  const GemmCase& gc = GetParam();
  Tensor a = gc.trans_a ? Tensor(gc.k, gc.m) : Tensor(gc.m, gc.k);
  Tensor b = gc.trans_b ? Tensor(gc.n, gc.k) : Tensor(gc.k, gc.n);
  Tensor c0(gc.m, gc.n);
  uniform_init(a, -2.0f, 2.0f, 1);
  uniform_init(b, -2.0f, 2.0f, 2);
  if (gc.negative_c) {
    uniform_init(c0, -2.0f, -0.5f, 3);
  } else if (gc.neg_zero_c) {
    c0.fill(-0.0f);
  } else {
    uniform_init(c0, -2.0f, 2.0f, 3);
  }
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  for (std::int64_t e = 0; e < a.size(); ++e) {
    const std::int64_t p = gc.trans_a ? e / gc.m : e % gc.k;
    if (unit(rng) < gc.a_zero_frac && p % gc.sparse_every == 0) a.data()[e] = 0.0f;
  }
  if (gc.zero_a_row) {
    for (std::int64_t p = 0; p < gc.k; ++p) {
      a.data()[gc.trans_a ? p * gc.m : p] = p % 2 == 0 ? 0.0f : -0.0f;
    }
  }
  if (gc.inf_opposite_zero) {
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {inf, -inf, std::numeric_limits<float>::quiet_NaN()};
    for (std::int64_t i = 0; i < gc.m; ++i) {
      a.data()[gc.trans_a ? i : i * gc.k] = i % 2 == 0 ? 0.0f : -0.0f;
    }
    for (std::int64_t j = 0; j < gc.n; ++j) {
      b.data()[gc.trans_b ? j * gc.k : j] = specials[j % 3];
    }
  }

  // The oracle: the same call through the scalar reference body.
  Tensor c_ref = c0;
  simd::force_tier(simd::Tier::kScalar);
  gemm(a, gc.trans_a, b, gc.trans_b, c_ref, gc.alpha, gc.beta);
  if (gc.zero_a_row && gc.beta == 0.0f && gc.negative_c) {
    EXPECT_TRUE(std::signbit(c_ref.data()[0])) << "beta = 0 must keep -0.0f";
  }
  if (gc.zero_a_row && gc.neg_zero_c) {
    for (std::int64_t j = 0; j < gc.n; ++j) {
      EXPECT_TRUE(std::signbit(c_ref.at(0, j))) << "beta = 1 must keep -0.0f, j=" << j;
    }
  }

  for (const simd::Tier tier : simd::supported_tiers()) {
    Tensor c = c0;
    simd::force_tier(tier);
    gemm(a, gc.trans_a, b, gc.trans_b, c, gc.alpha, gc.beta);
    EXPECT_EQ(std::memcmp(c.data(), c_ref.data(), c_ref.flat().size() * sizeof(float)), 0)
        << "tier " << simd::tier_name(tier) << " max diff " << Tensor::max_abs_diff(c, c_ref);
    if (gc.inf_opposite_zero) {
      for (const float v : c.flat()) {
        ASSERT_TRUE(std::isfinite(v)) << "tier " << simd::tier_name(tier)
                                      << ": a 0 * inf product reached C";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, GemmTiers,
    ::testing::Values(
        GemmCase{"nn_odd", 7, 9, 13, false, false, 1.3f, 0.7f, 0.0f, false, false},
        GemmCase{"tn_odd", 7, 9, 13, true, false, 1.3f, 0.7f, 0.0f, false, false},
        GemmCase{"nt_odd", 7, 9, 13, false, true, 1.3f, 0.7f, 0.0f, false, false},
        GemmCase{"tt_odd", 7, 9, 13, true, true, 1.3f, 0.7f, 0.0f, false, false},
        GemmCase{"nn_tail_1", 19, 1, 37, false, false, 1.0f, 0.0f, 0.0f, false, false},
        GemmCase{"nn_tail_15", 19, 15, 37, false, false, 1.0f, 0.0f, 0.0f, false, false},
        GemmCase{"nn_tail_17", 19, 17, 37, false, false, 1.0f, 0.0f, 0.0f, false, false},
        GemmCase{"tn_tail_33", 19, 33, 37, true, false, 1.0f, 1.0f, 0.0f, false, false},
        GemmCase{"nt_tail_47", 28, 47, 64, false, true, 1.0f, 0.0f, 0.0f, false, false},
        GemmCase{"tt_tail_47", 21, 47, 29, true, true, -0.5f, 2.0f, 0.0f, false, false},
        GemmCase{"k_1", 11, 33, 1, false, false, 1.0f, 0.0f, 0.0f, false, false},
        GemmCase{"k_1_tn", 11, 17, 1, true, false, 0.25f, 1.0f, 0.0f, false, false},
        GemmCase{"signed_zero", 9, 33, 21, false, false, 1.0f, 0.0f, 0.0f, true, true},
        GemmCase{"signed_zero_tn", 9, 47, 21, true, false, 1.0f, 0.0f, 0.0f, true, true},
        GemmCase{"relu_sparse", 37, 47, 512, false, false, 1.0f, 0.0f, 0.5f, false, false},
        GemmCase{"relu_sparse_nt", 37, 64, 47, false, true, 1.0f, 0.0f, 0.5f, false, false},
        GemmCase{"alpha_beta", 26, 40, 300, false, false, 0.37f, -1.5f, 0.1f, false, false},
        GemmCase{"alpha_beta_tn", 40, 26, 300, true, false, -2.0f, 0.3f, 0.1f, false, false},
        // Large enough (21M MACs) to split across the pool.
        GemmCase{"parallel_serving", 416, 256, 200, false, false, 1.0f, 0.0f, 0.3f, false,
                 false},
        // The sparse path: a step with any zero A element takes the
        // masked FMA, every other step the plain one.
        GemmCase{"inf_opposite_zero", 19, 40, 37, false, false, 1.0f, 0.0f, 0.3f, false, false,
                 1, true},
        GemmCase{"inf_opposite_zero_tn", 21, 33, 300, true, false, 0.5f, 1.0f, 0.3f, false,
                 false, 1, true},
        GemmCase{"inf_opposite_zero_nt", 12, 47, 20, false, true, 1.0f, 0.0f, 0.0f, false, false,
                 1, true},
        GemmCase{"mixed_steps", 24, 40, 300, false, false, 1.0f, 0.0f, 0.5f, false, false, 3},
        GemmCase{"mixed_steps_tn", 24, 47, 300, true, false, 1.0f, 1.0f, 0.5f, false, false, 4},
        GemmCase{"beta_one_neg_zero_c", 9, 33, 21, false, false, 1.0f, 1.0f, 0.5f, true, false,
                 1, false, true},
        GemmCase{"beta_one_neg_zero_c_tn", 13, 47, 260, true, false, 1.0f, 1.0f, 0.5f, true,
                 false, 1, false, true},
        GemmCase{"sparse_m_tail_1", 9, 40, 64, false, false, 1.0f, 0.0f, 0.5f, false, false},
        GemmCase{"sparse_m_tail_2", 10, 33, 64, true, false, 1.0f, 0.0f, 0.5f, false, false},
        GemmCase{"sparse_m_tail_3", 11, 17, 40, false, true, 1.0f, 0.0f, 0.5f, false, false},
        GemmCase{"sparse_m_tail_4", 28, 47, 512, false, false, 1.0f, 0.0f, 0.5f, false, false},
        GemmCase{"sparse_m_tail_5", 13, 47, 64, true, false, 1.0f, 0.5f, 0.5f, false, false},
        GemmCase{"sparse_m_tail_6", 14, 20, 33, false, false, 1.0f, 0.0f, 0.5f, false, false},
        GemmCase{"sparse_m_tail_7", 15, 64, 47, false, true, 1.0f, 0.0f, 0.5f, false, false},
        GemmCase{"sparse_k_blocks", 19, 40, 600, false, false, 1.0f, 0.0f, 0.5f, false, false},
        GemmCase{"sparse_k_blocks_tn", 17, 33, 513, true, false, 1.0f, -1.0f, 0.5f, false,
                 false},
        GemmCase{"sparse_k_blocks_nt", 16, 47, 257, false, true, 1.0f, 0.0f, 0.5f, false,
                 false},
        GemmCase{"sparse_k_block_edge", 12, 40, 129, true, false, 1.0f, 0.0f, 0.5f, false,
                 false}),
    [](const ::testing::TestParamInfo<GemmCase>& info) { return std::string(info.param.name); });

// The oracle itself: hand-written std::fma chains, C(i, j) = beta * C(i, j)
// then fma(A(i, p), B(p, j), c) for p ascending, zero A(i, p) skipped.
Tensor fma_chain_reference(const Tensor& a, const Tensor& b, float beta, const Tensor& c0) {
  Tensor c = c0;
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      float acc = c.at(i, j) * beta;
      for (std::int64_t p = 0; p < a.cols(); ++p) {
        if (a.at(i, p) != 0.0f) acc = std::fma(a.at(i, p), b.at(p, j), acc);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

TEST(GemmOracle, ScalarTierIsAStdFmaChain) {
  TierGuard guard;
  simd::force_tier(simd::Tier::kScalar);
  for (const float beta : {0.0f, 1.0f, -0.75f}) {
    Tensor a(13, 300), b(300, 47), c0(13, 47);
    uniform_init(a, -2.0f, 2.0f, 11);
    uniform_init(b, -2.0f, 2.0f, 12);
    uniform_init(c0, -2.0f, 2.0f, 13);
    for (std::int64_t e = 0; e < a.size(); e += 3) a.data()[e] = 0.0f;
    const Tensor expected = fma_chain_reference(a, b, beta, c0);
    Tensor c = c0;
    gemm(a, false, b, false, c, 1.0f, beta);
    EXPECT_EQ(std::memcmp(c.data(), expected.data(), expected.size() * sizeof(float)), 0)
        << "beta " << beta << " max diff " << Tensor::max_abs_diff(c, expected);
  }
}

// A = B = 1 + 2^-12 and C = -(1 + 2^-11): A * B = 1 + 2^-11 + 2^-24
// exactly.  Rounded on its own the product ties to even, 1 + 2^-11, and
// adding C gives 0; fused, the result is 2^-24.  So a tier or oracle that
// falls back to mul + add fails here every time.  With k = 1 every tile
// step is dense; with k = 130 each row's one non-zero A entry sits at a
// step of its own, so every step takes the masked path, and the chain
// crosses the 128-step k-block boundary.
TEST(GemmOracle, EveryTierFusesWhereMulAddWouldNot) {
  TierGuard guard;
  const float x = 1.0f + std::ldexp(1.0f, -12);
  const float y = -(1.0f + std::ldexp(1.0f, -11));
  volatile float product = x * x;  // rounded on its own, never contracted into an FMA
  ASSERT_EQ(product + y, 0.0f) << "mul + add must round the product away";
  ASSERT_EQ(std::fma(x, x, y), std::ldexp(1.0f, -24));
  for (const std::int64_t k : {std::int64_t{1}, std::int64_t{130}}) {
    // 19 rows and 47 columns: row and column tails on both x86 tiles.
    Tensor a(19, k), b(k, 47, x), c0(19, 47, y);
    for (std::int64_t i = 0; i < a.rows(); ++i) a.at(i, (i * 7) % k) = x;
    for (const simd::Tier tier : simd::supported_tiers()) {
      simd::force_tier(tier);
      Tensor c = c0;
      gemm(a, false, b, false, c, 1.0f, 1.0f);
      for (const float v : c.flat()) {
        ASSERT_EQ(v, std::ldexp(1.0f, -24)) << "tier " << simd::tier_name(tier) << " k " << k;
      }
    }
  }
}

// Single fma steps where a shortcut goes wrong, each a 1 x 1 x 1 GEMM with
// beta = 1, bit-compared with std::fma on every tier (NaN only as NaN).
// 33025 * 32513 = 2^30 + 1 and 21483 * 49981 = 2^30 - 1, so the first
// two products are 2^-24 +- 2^-54: added to c they land 2^-54 off a
// float midpoint, which rounding the exact sum to double would erase (a
// tie to even, the wrong way).  The rest: overflow, a subnormal result,
// inf/NaN operands and the sign of an exact zero.
TEST(GemmOracle, EveryTierMatchesStdFmaAtHardSteps) {
  TierGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float max = std::numeric_limits<float>::max();
  struct Step {
    float a, b, c;
  };
  const Step steps[] = {
      {std::ldexp(33025.0f, -27), std::ldexp(32513.0f, -27), 1.0f},
      {-std::ldexp(33025.0f, -27), std::ldexp(32513.0f, -27), -1.0f},
      {std::ldexp(21483.0f, -27), std::ldexp(49981.0f, -27), 1.0f + std::ldexp(1.0f, -23)},
      {max, 2.0f, -max},
      {max, 1.0f, max},
      {std::ldexp(1.5f, -70), std::ldexp(1.0f, -70), std::ldexp(1.0f, -149)},
      {std::ldexp(1.0f, -75), -std::ldexp(1.0f, -75), 0.0f},
      {1.5f, 2.0f, inf},
      {1.5f, inf, -inf},
      {inf, 1.0f, 3.0f},
      {1.5f, std::numeric_limits<float>::quiet_NaN(), 1.0f},
      {2.0f, 3.0f, -6.0f},
      {1.0f, -0.0f, -0.0f},
      {1.0f, -0.0f, 0.0f},
  };
  ASSERT_EQ(std::fma(steps[0].a, steps[0].b, steps[0].c), 1.0f + std::ldexp(1.0f, -23));
  ASSERT_EQ(std::fma(steps[2].a, steps[2].b, steps[2].c), 1.0f + std::ldexp(1.0f, -23));
  for (const simd::Tier tier : simd::supported_tiers()) {
    simd::force_tier(tier);
    for (const Step& st : steps) {
      Tensor a(1, 1, st.a), b(1, 1, st.b), c(1, 1, st.c);
      gemm(a, false, b, false, c, 1.0f, 1.0f);
      const float want = std::fma(st.a, st.b, st.c);
      const float got = c.at(0, 0);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << simd::tier_name(tier) << " fma(" << st.a << ", " << st.b
                                     << ", " << st.c << ")";
      } else {
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << simd::tier_name(tier) << " fma(" << st.a << ", " << st.b << ", " << st.c
            << ") = " << want << ", got " << got;
      }
    }
  }
  // And random bit patterns over the whole exponent range: a 64 x 1 x 256
  // GEMM is 16384 single steps.
  std::mt19937 rng(7);
  const auto random_float = [&rng] { return std::bit_cast<float>(static_cast<std::uint32_t>(rng())); };
  Tensor a(64, 1), b(1, 256), c0(64, 256);
  for (float& v : a.flat()) v = random_float();
  for (float& v : b.flat()) v = random_float();
  for (float& v : c0.flat()) v = random_float();
  for (const simd::Tier tier : simd::supported_tiers()) {
    simd::force_tier(tier);
    Tensor c = c0;
    gemm(a, false, b, false, c, 1.0f, 1.0f);
    for (std::int64_t i = 0; i < c.rows(); ++i) {
      for (std::int64_t j = 0; j < c.cols(); ++j) {
        const float want = a.at(i, 0) == 0.0f ? c0.at(i, j) : std::fma(a.at(i, 0), b.at(0, j), c0.at(i, j));
        const float got = c.at(i, j);
        const bool same = std::isnan(want) ? std::isnan(got) : std::memcmp(&got, &want, sizeof got) == 0;
        ASSERT_TRUE(same) << simd::tier_name(tier) << " fma(" << a.at(i, 0) << ", " << b.at(0, j)
                          << ", " << c0.at(i, j) << ") = " << want << ", got " << got;
      }
    }
  }
}

// ------------------------------------------------------------ int8 hot path

TEST(HotPathInt8, WireBytesRatioAtLeastThree) {
  const Dataset& ds = hotpath_dataset();
  ASSERT_GE(ds.features.cols(), 12);  // cols + 4 vs 4 * cols needs cols >= 12
  MutableFeatureStore fp32_store(ds.features, TransferPrecision::kFp32);
  MutableFeatureStore int8_store(ds.features, TransferPrecision::kInt8);
  EXPECT_GE(fp32_store.row_wire_bytes() / int8_store.row_wire_bytes(), 3.0);
}

TEST(HotPathInt8, Fp16DeviceRowsAreRejected) {
  // The message is PINNED: operators grep logs for it, and a silent
  // rewording (or a swapped throw site) would break the runbooks that
  // tell users which knob to change.  The store fixes the precision of
  // every row, so its constructor is the one place fp16 is refused.
  const Dataset& ds = hotpath_dataset();
  try {
    MutableFeatureStore store(ds.features, TransferPrecision::kFp16);
    FAIL() << "fp16 wire precision must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "MutableFeatureStore: fp16 wire precision not implemented (use fp32 or int8)");
  }
}

/// Gathers every vertex of `ds` through a cache of `capacity` rows over
/// `store`; returns the rows and checks the hit count.
Tensor gather_all(const Dataset& ds, const MutableFeatureStore& store, std::int64_t capacity) {
  StaticFeatureCache cache(ds.graph, store, capacity);
  std::vector<VertexId> all(static_cast<std::size_t>(ds.graph.num_vertices()));
  for (std::size_t v = 0; v < all.size(); ++v) all[v] = static_cast<VertexId>(v);
  Tensor out;
  std::vector<char> scratch;
  const auto stats = cache.gather(all, out, scratch);
  EXPECT_EQ(stats.hits, capacity);
  return out;
}

TEST(HotPathInt8, CacheHitMatchesHostMissExactly) {
  // One row format on both sides: every row served from a full int8
  // cache (all hits) must be byte-identical to the same row served
  // through a zero-capacity one (all misses) — hit/miss composition can
  // never change logits.
  const Dataset& ds = hotpath_dataset();
  const MutableFeatureStore store(ds.features, TransferPrecision::kInt8);
  const Tensor hits = gather_all(ds, store, ds.graph.num_vertices());
  const Tensor misses = gather_all(ds, store, 0);
  ASSERT_EQ(hits.size(), misses.size());
  EXPECT_EQ(std::memcmp(hits.data(), misses.data(), static_cast<std::size_t>(hits.size()) *
                                                        sizeof(float)),
            0);
}

/// `values` round-tripped through int8: the only thing an int8 store may
/// ever serve for a row written with them.
std::vector<float> round_tripped(std::span<const float> values) {
  Tensor row(1, static_cast<std::int64_t>(values.size()));
  std::copy(values.begin(), values.end(), row.row(0).begin());
  quantize_roundtrip_int8(row);
  return {row.row(0).begin(), row.row(0).end()};
}

void expect_row_bytes(const MutableFeatureStore& store, VertexId v,
                      const std::vector<float>& want) {
  Tensor out;
  store.gather(std::span<const VertexId>(&v, 1), out);
  ASSERT_EQ(out.cols(), static_cast<std::int64_t>(want.size()));
  EXPECT_EQ(std::memcmp(out.row(0).data(), want.data(), want.size() * sizeof(float)), 0)
      << "v=" << v;
}

TEST(HotPathInt8, EveryStoreWritePathServesTheRoundTrippedRow) {
  const Dataset& ds = hotpath_dataset();
  MutableFeatureStore store(ds.features, TransferPrecision::kInt8);
  const auto cols = static_cast<std::size_t>(ds.features.cols());

  // Construction: the whole matrix, row by row.
  Tensor reference = ds.features;
  quantize_roundtrip_int8(reference);
  for (VertexId v = 0; v < ds.graph.num_vertices(); ++v) {
    const auto row = reference.row(v);
    expect_row_bytes(store, v, {row.begin(), row.end()});
  }

  const std::vector<float> updated = random_floats(cols, 21);
  store.update_row(5, updated);
  expect_row_bytes(store, 5, round_tripped(updated));

  const std::vector<float> appended = random_floats(cols, 22);
  const VertexId extra = store.append_row(appended);
  expect_row_bytes(store, extra, round_tripped(appended));

  // release_row writes zeros, on base and extension rows alike.
  const std::vector<float> zeros(cols, 0.0f);
  store.release_row(7);
  expect_row_bytes(store, 7, round_tripped(zeros));
  store.release_row(extra);
  expect_row_bytes(store, extra, round_tripped(zeros));

  const std::vector<float> reused = random_floats(cols, 23);
  store.reuse_row(extra, reused);
  expect_row_bytes(store, extra, round_tripped(reused));
}

TEST(HotPathInt8, StaticServerHitsAndMissesServeIdenticalRows) {
  // Static serving holds an int8 store too, so a miss is as int8 as a
  // hit: the same rows gathered through an all-hit and an all-miss
  // backend are byte-identical, and the served logits are a forward
  // over the round-tripped matrix.
  const Dataset& ds = hotpath_dataset();
  GnnModel model(hotpath_model_config());
  const ModelSnapshot snapshot(model);
  const std::vector<VertexId> seeds = {0, 17, 40, 65, 95};
  const MiniBatch mb = sample_full(ds.graph, seeds, model.config().num_layers());

  auto gather_through = [&](std::int64_t cache_rows) {
    ServingConfig config;
    config.cache_capacity_rows = cache_rows;
    config.transfer_precision = TransferPrecision::kInt8;
    auto backend = make_static_backend(ds, config);
    auto session = backend->make_session(1, model.config().num_layers());
    Tensor x;
    std::vector<char> scratch;
    session->gather(mb, x, scratch);
    return x;
  };
  const Tensor hits = gather_through(ds.graph.num_vertices());
  const Tensor misses = gather_through(0);
  ASSERT_EQ(hits.size(), misses.size());
  EXPECT_EQ(std::memcmp(hits.data(), misses.data(), static_cast<std::size_t>(hits.size()) *
                                                        sizeof(float)),
            0);

  ServingConfig config;  // empty fanouts = full neighborhood (exact)
  config.num_workers = 1;
  config.cache_capacity_rows = 48;  // half the graph: hits AND misses
  config.transfer_precision = TransferPrecision::kInt8;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);
  const Tensor served = server.infer(seeds).logits;
  Tensor round_trip = ds.features;
  quantize_roundtrip_int8(round_trip);
  FeatureLoader loader(round_trip);
  Tensor x;
  loader.load(mb, x);
  EXPECT_LE(Tensor::max_abs_diff(served, model.forward(mb, x)), 1e-6);
}

TEST(HotPathInt8, BackendRefusesAPrecisionItsStoreLacks) {
  // The store decides the precision once; a serving config that
  // disagrees is a wiring error, not a second knob.
  const Dataset& ds = hotpath_dataset();
  ServingConfig config;
  config.cache_capacity_rows = 8;
  config.transfer_precision = TransferPrecision::kInt8;
  StreamingGraph fp32_stream(ds);
  EXPECT_THROW(make_streaming_backend(fp32_stream, config), std::invalid_argument);
  ShardedConfig sharded;
  sharded.num_shards = 2;
  ShardedStreamingGraph fp32_sharded(ds, sharded);
  EXPECT_THROW(make_sharded_backend(fp32_sharded, config), std::invalid_argument);

  config.transfer_precision = TransferPrecision::kFp32;
  StreamingGraph int8_stream(
      ds, {}, std::make_shared<MutableFeatureStore>(ds.features, TransferPrecision::kInt8));
  EXPECT_THROW(make_streaming_backend(int8_stream, config), std::invalid_argument);
  // A matching config builds: the store's precision is the cache's.
  config.transfer_precision = TransferPrecision::kInt8;
  auto backend = make_streaming_backend(int8_stream, config);
  EXPECT_EQ(backend->cache()->precision(), TransferPrecision::kInt8);
}

TEST(HotPathInt8, ServedLogitsMatchRoundTrippedReferenceWithinTolerance) {
  const Dataset& ds = hotpath_dataset();
  GnnModel model(hotpath_model_config());
  const ModelSnapshot snapshot(model);

  auto serve_logits = [&](TransferPrecision precision) {
    StreamingGraph stream(ds, {}, std::make_shared<MutableFeatureStore>(ds.features, precision));
    ServingConfig config;  // empty fanouts = full neighborhood (exact)
    config.num_workers = 1;
    config.cache_capacity_rows = 48;  // half the graph: hits AND misses
    config.transfer_precision = precision;
    auto backend = make_streaming_backend(stream, config);
    InferenceServer server(*backend, snapshot, config);
    return server.infer({0, 17, 40, 65, 95}).logits;
  };

  const Tensor fp32 = serve_logits(TransferPrecision::kFp32);
  const Tensor int8 = serve_logits(TransferPrecision::kInt8);

  // Exactness: the int8 serve equals a forward over the explicitly
  // round-tripped feature matrix — the gather introduced exactly the
  // wire error, nothing else (hits and misses included).
  Tensor round_tripped = ds.features;
  quantize_roundtrip_int8(round_tripped);
  const std::vector<VertexId> seeds = {0, 17, 40, 65, 95};
  const MiniBatch mb = sample_full(ds.graph, seeds, model.config().num_layers());
  FeatureLoader loader(round_tripped);
  Tensor x;
  loader.load(mb, x);
  const Tensor reference = model.forward(mb, x);
  EXPECT_LE(Tensor::max_abs_diff(int8, reference), 1e-6);

  // Tolerance: int8 logits stay within the documented 0.05 bound of
  // fp32 (this assertion is that gate), and fp32 serving is untouched
  // by the quantization machinery.
  const double drift = Tensor::max_abs_diff(int8, fp32);
  EXPECT_GT(drift, 0.0);
  EXPECT_LE(drift, 0.05);

  const Tensor direct = model.forward(mb, [&] {
    FeatureLoader exact(ds.features);
    Tensor xf;
    exact.load(mb, xf);
    return xf;
  }());
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(fp32, direct), 0.0);
}

// ------------------------------------------------------------- cache rerank

std::vector<VertexId> uncached_vertices(const StaticFeatureCache& cache, VertexId limit,
                                        std::size_t count) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < limit && out.size() < count; ++v) {
    if (!cache.cached(v)) out.push_back(v);
  }
  return out;
}

/// Accepts the first edge the graph will take from a probe sequence, so
/// compact() has something to fold.
void ingest_one_edge(StreamingGraph& stream) {
  const VertexId n = stream.dataset().graph.num_vertices();
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 2; v < n; v += 7) {
      if (stream.add_edge(u, v)) return;
    }
  }
  FAIL() << "no insertable edge found";
}

TEST(CacheRerank, FoldRecoversHitRateOnShiftedWorkload) {
  const Dataset& ds = hotpath_dataset();
  StreamingGraph stream(ds);
  StaticFeatureCache cache(ds.graph, stream.features(), 16);
  stream.attach_cache(&cache);

  // A workload aimed squarely at vertices the degree-ordered admission
  // did NOT pin: every gather misses.
  const std::vector<VertexId> targets =
      uncached_vertices(cache, ds.graph.num_vertices(), 16);
  ASSERT_EQ(targets.size(), 16u);
  Tensor out;
  for (int i = 0; i < 20; ++i) {
    stream.gather(std::span<const VertexId>(targets.data(), targets.size()), out);
  }
  const auto before = cache.totals();
  EXPECT_EQ(before.hits, 0);
  EXPECT_GT(before.misses, 0);

  // A fold rewrites the base — and triggers the observed-traffic rerank.
  ingest_one_edge(stream);
  ASSERT_TRUE(stream.compact());
  EXPECT_EQ(cache.reranks(), 1);
  EXPECT_GT(cache.readmitted_rows(), 0);
  for (const VertexId v : targets) {
    EXPECT_TRUE(cache.cached(v)) << "v=" << v;
  }

  // The same workload now hits: post-rerank rate strictly above the
  // pre-rerank rate, so a re-rank never makes the cache worse.
  for (int i = 0; i < 20; ++i) {
    stream.gather(std::span<const VertexId>(targets.data(), targets.size()), out);
  }
  const auto after = cache.totals();
  const double before_rate = before.hit_rate();
  const double window_hits = static_cast<double>(after.hits - before.hits);
  const double window_total = static_cast<double>((after.hits + after.misses) -
                                                  (before.hits + before.misses));
  const double after_rate = window_hits / window_total;
  EXPECT_GT(after_rate, before_rate);
  EXPECT_DOUBLE_EQ(after_rate, 1.0);
}

TEST(CacheRerank, SlotsFreedByEvictionAreReadmitted) {
  const Dataset& ds = hotpath_dataset();
  StreamingGraph stream(ds);
  StaticFeatureCache cache(ds.graph, stream.features(), 8);
  stream.attach_cache(&cache);

  // Retire a pinned vertex: its slot is freed and — before rerank() —
  // would have leaked forever.
  VertexId pinned = -1;
  for (VertexId v = 0; v < ds.graph.num_vertices(); ++v) {
    if (cache.cached(v)) {
      pinned = v;
      break;
    }
  }
  ASSERT_GE(pinned, 0);
  ASSERT_TRUE(stream.remove_vertex(pinned));
  EXPECT_FALSE(cache.cached(pinned));
  EXPECT_GE(cache.evictions(), 1);

  // Make one cold vertex hot, then fold (the retraction ops are enough
  // for compact() to have work).
  const std::vector<VertexId> hot = uncached_vertices(cache, ds.graph.num_vertices(), 1);
  ASSERT_EQ(hot.size(), 1u);
  Tensor out;
  for (int i = 0; i < 10; ++i) {
    stream.gather(std::span<const VertexId>(hot.data(), hot.size()), out);
  }
  ASSERT_TRUE(stream.compact());

  EXPECT_GE(cache.readmitted_rows(), 1);
  EXPECT_TRUE(cache.cached(hot[0]));
  // The dead vertex must never re-enter, however hot its counter was.
  EXPECT_FALSE(cache.cached(pinned));
}

TEST(CacheRerank, DisabledConfigKeepsConstructionAdmission) {
  const Dataset& ds = hotpath_dataset();
  StreamingConfig config;
  config.cache_rerank = false;
  StreamingGraph stream(ds, config);
  StaticFeatureCache cache(ds.graph, stream.features(), 8);
  stream.attach_cache(&cache);

  const std::vector<VertexId> targets = uncached_vertices(cache, ds.graph.num_vertices(), 8);
  Tensor out;
  for (int i = 0; i < 10; ++i) {
    stream.gather(std::span<const VertexId>(targets.data(), targets.size()), out);
  }
  ingest_one_edge(stream);
  ASSERT_TRUE(stream.compact());
  EXPECT_EQ(cache.reranks(), 0);
  for (const VertexId v : targets) EXPECT_FALSE(cache.cached(v));
}

TEST(CacheRerank, GraphCountsEveryRerankOfItsCache) {
  // stream.cache_reranks reads this count; it must move without
  // telemetry, on the fold-time and the on-demand re-rank alike.
  const Dataset& ds = hotpath_dataset();
  StreamingGraph stream(ds);
  EXPECT_EQ(stream.stats().cache_reranks, 0);
  stream.rerank_now();  // no cache attached: nothing re-ranked
  EXPECT_EQ(stream.stats().cache_reranks, 0);

  StaticFeatureCache cache(ds.graph, stream.features(), 8);
  stream.attach_cache(&cache);
  ingest_one_edge(stream);
  ASSERT_TRUE(stream.compact());
  EXPECT_EQ(stream.stats().cache_reranks, 1);
  stream.rerank_now();
  EXPECT_EQ(stream.stats().cache_reranks, 2);
  EXPECT_EQ(stream.stats().cache_reranks, cache.reranks());
}

// ------------------------------------------------------------ concurrency

TEST(CacheRace, MembershipReadsRaceMutatorsCleanly) {
  // TSan regression: cached() used to read an unsynchronised bitmap
  // while evict()/invalidate() rewrote it.  Readers hammer membership
  // and row gathers while a mutator cycles evict -> invalidate -> rerank.
  const Dataset& ds = hotpath_dataset();
  const MutableFeatureStore store(ds.features);
  StaticFeatureCache cache(ds.graph, store, 16);
  const VertexId n = ds.graph.num_vertices();
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> observed_hits{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Tensor row;
      std::vector<char> scratch;
      std::mt19937_64 rng(100u + static_cast<unsigned>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const VertexId v = static_cast<VertexId>(rng() % static_cast<std::uint64_t>(n));
        if (cache.cached(v)) observed_hits.fetch_add(1, std::memory_order_relaxed);
        cache.gather(std::span<const VertexId>(&v, 1), row, scratch);
      }
    });
  }

  std::vector<VertexId> hot;
  for (VertexId v = n - 1; v >= 0 && hot.size() < 16; --v) hot.push_back(v);
  for (int round = 0; round < 200; ++round) {
    const VertexId ids[2] = {static_cast<VertexId>(round % n),
                             static_cast<VertexId>((round * 7) % n)};
    cache.evict(std::span<const VertexId>(ids, 2));
    cache.invalidate(std::span<const VertexId>(ids, 2));
    cache.rerank(hot);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(cache.reranks(), 0);
  EXPECT_GE(observed_hits.load(), 0);
}

}  // namespace
}  // namespace hyscale
