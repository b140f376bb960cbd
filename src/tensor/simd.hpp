// Runtime-dispatched SIMD kernels for the gather/GEMM hot path.
//
// Every kernel has three faces:
//   * the dispatching entry point (copy/axpy/dequant/max_abs/gemm) —
//     picks the best tier the CPU supports, checked once at start-up:
//     AVX-512F, then AVX2 (each with FMA) on x86-64; NEON on aarch64;
//     scalar otherwise;
//   * a `_scalar` reference implementation — always compiled, used as
//     the differential oracle by the bit-identity tests;
//   * the vector bodies themselves (simd.cpp).
// copy/axpy/dequant/max_abs have AVX2 and NEON bodies (the AVX-512 tier
// runs the AVX2 ones); gemm has a register-tiled body per x86 tier and
// runs NEON as a row-by-row fused (vfma) axpy.  backend_name() reports
// the tier: "avx512", "avx2", "neon" or "scalar".
//
// Bit-identity contract: the vector kernels are written so every lane
// performs EXACTLY the scalar sequence of IEEE operations — axpy and the
// GEMM run one fused multiply-add per step on every tier (IEEE 754 fma
// is as exactly specified as mul then add), dequant is one multiply,
// reductions use only max (order-independent for finite inputs), and
// int8->float conversion is exact.  That is what lets the
// stream-vs-rebuild differential harness keep its bit-identical
// guarantee on the fp32 path while the kernels are live in production:
// scalar and SIMD builds of the same gather/GEMM produce the same bits.
// The vector bodies live in simd.cpp because it is the one translation
// unit every build compiles with -ffp-contract=off, so the compiler
// never fuses a mul + add the code writes out separately (dequant, the
// scalar tails); axpy and the GEMM fuse only through explicit FMA
// intrinsics, std::fma, and the scalar oracle's exact double-precision
// fma, which needs no FMA unit.  On x86-64 both vector tiers need FMA:
// a CPU without it runs the scalar tier.
//
// Dispatch is per call (one relaxed load + predictable branch), so the
// test seam force_tier() can cap the tier at runtime without rebuilding
// — the differential tests run the same binary on every tier.
#pragma once

#include <cstdint>
#include <vector>

namespace hyscale::simd {

/// Dispatch tiers, lowest first.  kBest is not a tier: it lifts the cap
/// set by force_tier().
enum class Tier { kScalar, kNeon, kAvx2, kAvx512, kBest };

/// "scalar", "neon", "avx2", "avx512" (and "best" for kBest).
const char* tier_name(Tier tier);

/// The tiers this CPU runs, kScalar first and the best last.
std::vector<Tier> supported_tiers();

/// The tier the dispatching kernels currently select: the best supported
/// tier at or below the force_tier() cap.
Tier active_tier();

/// Name of the active tier: "avx512", "avx2", "neon", or "scalar" (also
/// "scalar" while force_tier(Tier::kScalar) holds).
const char* backend_name();

/// Test seam: cap the dispatching kernels at `cap` regardless of CPU
/// support (kScalar routes everything through the scalar bodies; kBest
/// lifts the cap).  Global and sticky until changed; the bit-identity
/// tests run the same kernel once per tier under it.
void force_tier(Tier cap);
Tier forced_tier();

// ---- dispatching kernels (the hot-path entry points) ----

/// dst[0..n) = src[0..n).
void copy(const float* src, float* dst, std::int64_t n);

/// y[0..n) = fma(a, x[0..n), y[0..n)) — row accumulation, one rounding
/// per element on every tier (the GEMM's step), matching the scalar
/// kernel bit for bit.  At a = 1 it rounds x + y once, exactly as
/// `y += x` does.
void axpy(float a, const float* x, float* y, std::int64_t n);

/// dst[0..n) = float(q[0..n)) * scale — int8 device-row dequantization,
/// fused into the gather copy.  int8 -> float conversion is exact, so
/// the result is bit-identical to the scalar body.
void dequant(const std::int8_t* q, float scale, float* dst, std::int64_t n);

/// max over |x[0..n)| (0 for n == 0) — the per-row quantization scale
/// numerator.  max is order-independent for finite floats, so the tree
/// reduction matches the scalar left-to-right scan bit for bit.
float max_abs(const float* x, std::int64_t n);

/// Operands of one GEMM, C = A * B + beta * C, over raw spans:
/// A(i, p) = a[i * a_row_stride + p * a_col_stride], so a transposed A
/// is a stride swap; B is a dense k x n panel, B(p, j) = b[p * ldb + j];
/// C(i, j) = c[i * ldc + j].  C must not overlap A or B.
struct GemmOperands {
  std::int64_t n = 0;
  std::int64_t k = 0;
  float beta = 0.0f;
  const float* a = nullptr;
  std::int64_t a_row_stride = 0;
  std::int64_t a_col_stride = 1;
  const float* b = nullptr;
  std::int64_t ldb = 0;
  float* c = nullptr;
  std::int64_t ldc = 0;
};

/// Rows [r0, r1) of C = A * B + beta * C — the feature-update kernel
/// behind hyscale::gemm (which folds alpha into A first).  Every C(i, j)
/// gets exactly this IEEE sequence on every tier: c *= beta; then for p
/// ascending, skip p when A(i, p) == 0 (either sign); else c =
/// fma(A(i, p), B(p, j), c), rounded once per step.  The x86 bodies
/// hold a tile of C in vector registers while they walk p (AVX-512:
/// 8 rows x 32 columns; AVX2: 4 x 16), with masked column tails.  A
/// tile's rows of A are packed once per k-block into a panel every
/// column tile shares, with a keep mask per row and step and a per-step
/// "all rows non-zero" flag: a dense step runs the plain FMA; a step
/// with a zero computes every FMA and keeps the skipped rows'
/// accumulators through a mask (AVX-512 mask3 FMA, AVX2 blendv).  No
/// branch per row, and a 0 * inf product is discarded, never added.
void gemm(const GemmOperands& op, std::int64_t r0, std::int64_t r1);

// ---- scalar reference bodies (the differential oracles) ----

void copy_scalar(const float* src, float* dst, std::int64_t n);
void axpy_scalar(float a, const float* x, float* y, std::int64_t n);
void dequant_scalar(const std::int8_t* q, float scale, float* dst, std::int64_t n);
float max_abs_scalar(const float* x, std::int64_t n);
void gemm_scalar(const GemmOperands& op, std::int64_t r0, std::int64_t r1);

}  // namespace hyscale::simd
