// Vector kernel bodies.  Compiled with -ffp-contract=off (CMake source
// property, in both the library build and perfbench's) so the compiler
// never contracts a multiply and an add written out in C++ into an FMA:
// the plain C++ arithmetic left here (dequant's multiply and the scalar
// tails) keeps one rounding per operation.  Every multiply-add that
// fuses does so on purpose and on every tier — axpy and the GEMM alike:
// explicit FMA intrinsics in the vector bodies, std::fma in the NEON
// tails, and an exact double-precision emulation in the scalar oracle
// (axpy_scalar), none of which the flag touches (the contract in
// simd.hpp).
//
// x86-64: AVX2 and AVX-512F bodies carry per-function target attributes
// (the library itself stays baseline x86-64), guarded at runtime by
// __builtin_cpu_supports.  Both vector tiers need FMA (the AVX2 axpy
// and GEMM tile are compiled "avx2,fma"); a CPU without it runs the
// scalar tier.
//
// aarch64: NEON is architecturally mandatory, so the bodies dispatch
// unconditionally (axpy and the GEMM's row steps are vfma).
#include "tensor/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#if defined(__x86_64__) || defined(_M_X64)
#define HYSCALE_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define HYSCALE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace hyscale::simd {

namespace {

std::atomic<Tier> g_cap{Tier::kBest};

Tier best_supported_tier() {
  static const Tier best = [] {
#if defined(HYSCALE_SIMD_X86)
    // The GEMM tiles fuse, so neither vector tier runs without FMA.
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) return Tier::kScalar;
    if (__builtin_cpu_supports("avx512f")) return Tier::kAvx512;
    return Tier::kAvx2;
#elif defined(HYSCALE_SIMD_NEON)
    return Tier::kNeon;
#else
    return Tier::kScalar;
#endif
  }();
  return best;
}

}  // namespace

// y[0..n) = fma(a, x[0..n), y[0..n)) — the scalar axpy, and the step of
// the scalar GEMM oracle.  Bit-equal to std::fma but built from plain
// double arithmetic, because baseline x86-64 has no FMA instruction and
// std::fma there is a libm call per element (glibc's software fmaf,
// which a CPU without FMA takes, ran the GEMM 40-70x slower than this
// loop does).  A float product is exact in double; TwoSum gives the
// error e of the double sum s exactly; rounding s to odd (the neighbour
// with an odd last bit when e != 0) keeps the sticky bit, and
// 53 >= 24 + 2 bits makes the final float rounding a single correct
// rounding.  Products cannot overflow double, so a NaN e only comes
// from an inf/NaN operand, where s is already the IEEE answer.
void axpy_scalar(float a, const float* x, float* y, std::int64_t n) {
  const double da = a;
  for (std::int64_t i = 0; i < n; ++i) {
    const double p = da * static_cast<double>(x[i]);
    const double c = y[i];
    const double s = p + c;
    const double p_part = s - c;
    const double e = (p - p_part) + (c - (s - p_part));
    // 1 if e is non-zero and finite, else 0.  Selected as a double (the
    // bits of denorm_min are 1) because SSE2 has no 64-bit integer
    // compare, and an integer select keeps the loop from vectorizing.
    const std::uint64_t inexact = std::bit_cast<std::uint64_t>(
        std::fabs(e) > 0.0 ? std::numeric_limits<double>::denorm_min() : 0.0);
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(s);
    // Truncate toward zero (one step down when e points at zero), then
    // set the last bit.
    const std::uint64_t toward_zero = ((bits ^ std::bit_cast<std::uint64_t>(e)) >> 63) & inexact;
    y[i] = static_cast<float>(std::bit_cast<double>((bits - toward_zero) | inexact));
  }
}

namespace {

// Rows of C = A * B + beta * C, one row at a time through a fused axpy
// body — the scalar oracle, and the NEON tier's GEMM.
template <void (*FmaAxpy)(float, const float*, float*, std::int64_t)>
void gemm_rows_axpy(const GemmOperands& op, std::int64_t r0, std::int64_t r1) {
  for (std::int64_t i = r0; i < r1; ++i) {
    float* c_row = op.c + i * op.ldc;
    for (std::int64_t j = 0; j < op.n; ++j) c_row[j] *= op.beta;
    const float* a_row = op.a + i * op.a_row_stride;
    for (std::int64_t p = 0; p < op.k; ++p) {
      const float s = a_row[p * op.a_col_stride];
      if (s == 0.0f) continue;
      FmaAxpy(s, op.b + p * op.ldb, c_row, op.n);
    }
  }
}

#if defined(HYSCALE_SIMD_X86)

__attribute__((target("avx2"))) void copy_avx2(const float* src, float* dst,
                                               std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(dst + i, _mm256_loadu_ps(src + i));
  for (; i < n; ++i) dst[i] = src[i];
}

// y[0..n) = fma(a, x[0..n), y[0..n)), eight lanes at a time; the tail
// is one masked step, so every element gets the same single rounding.
__attribute__((target("avx2,fma"))) void fma_axpy_avx2(float a, const float* x, float* y,
                                                       std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  if (i == n) return;
  const __m256i tail = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - i)),
                                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256 sum =
      _mm256_fmadd_ps(va, _mm256_maskload_ps(x + i, tail), _mm256_maskload_ps(y + i, tail));
  _mm256_maskstore_ps(y + i, tail, sum);
}

__attribute__((target("avx2"))) void dequant_avx2(const std::int8_t* q, float scale,
                                                  float* dst, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i));
    const __m256i ints = _mm256_cvtepi8_epi32(bytes);
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_cvtepi32_ps(ints), vs));
  }
  for (; i < n; ++i) dst[i] = static_cast<float>(q[i]) * scale;
}

__attribute__((target("avx2"))) float max_abs_avx2(const float* x, std::int64_t n) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 best = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    best = _mm256_max_ps(best, _mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, best);
  float m = 0.0f;
  for (float lane : lanes) m = lane > m ? lane : m;
  for (; i < n; ++i) {
    const float v = x[i] < 0.0f ? -x[i] : x[i];
    if (v > m) m = v;
  }
  return m;
}

// The register-tiled GEMM bodies walk k in blocks of kGemmKc, so a block
// of B (kGemmKc x n) stays cache-resident across every row tile.  At the
// serving layer-1 shape (n = 47) a 128-step block of B (24 KB) and the
// tile's packed A panel fit a 48 KB L1 together; 256 steps (48 KB of B)
// did not, and cost 10-15 % on that shape.  Each C element still sees p
// in ascending order: C round-trips through memory between blocks as a
// float, exactly, and only the first block applies beta.
constexpr std::int64_t kGemmKc = 128;

// One k-block of a kMr-row slice of A, packed once and shared by every
// column tile of those rows.  Step s (p = p0 + s) holds A(i0 + r, p) for
// each row r, a `keep` lane mask per row (all ones where that element is
// non-zero, all zeros where it is +-0: the rows the scalar body skips)
// and whether every row's element is non-zero.  A dense step runs the
// plain FMA; any other step computes every FMA and keeps the skipped
// rows' accumulators through the mask, so the tile has no branch per row
// and a 0 * inf product is discarded, never added.  The AVX-512 tile
// reads a keep mask's low 16 bits as its __mmask16, the AVX2 tile
// broadcasts it as a blendv lane mask.
template <std::int64_t kMr>
struct PackedPanel {
  float a[kGemmKc][kMr];
  std::uint32_t keep[kGemmKc][kMr];
  bool dense[kGemmKc];
};

// Packs rows [i0, i0 + rows) of A over p in [p0, p1) into `panel`, four
// rows at a time where the layout allows: a row-major A (the NN and NT
// layouts) is transposed four rows by four steps at a time, and in A^T
// (TN) a step's rows lie side by side, so they copy as one vector.  The
// rest (a short last row group, the k-block's last few steps, any other
// strides) goes one element at a time.
template <std::int64_t kMr>
__attribute__((target("avx2"))) void pack_panel(const GemmOperands& op, std::int64_t i0,
                                                std::int64_t rows, std::int64_t p0,
                                                std::int64_t p1, PackedPanel<kMr>& panel) {
  const std::int64_t rs = op.a_row_stride;
  const std::int64_t cs = op.a_col_stride;
  const float* a = op.a + i0 * rs + p0 * cs;
  const std::int64_t steps = p1 - p0;
  std::fill_n(panel.dense, steps, true);
  auto put1 = [&](std::int64_t s, std::int64_t r) {
    const float v = a[r * rs + s * cs];
    const bool nonzero = v != 0.0f;  // NaN is kept, as in the scalar body
    panel.a[s][r] = v;
    panel.keep[s][r] = nonzero ? ~0u : 0u;
    panel.dense[s] = panel.dense[s] && nonzero;
  };
  // Rows r .. r + 3 of step s; cmpneqps is NEQ_UQ, so a NaN is kept too.
  auto put4 = [&panel](std::int64_t s, std::int64_t r, __m128 v) {
    const __m128 keep = _mm_cmpneq_ps(v, _mm_setzero_ps());
    _mm_storeu_ps(&panel.a[s][r], v);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&panel.keep[s][r]), _mm_castps_si128(keep));
    panel.dense[s] = panel.dense[s] && _mm_movemask_ps(keep) == 0xf;
  };
  std::int64_t r = 0;
  if (cs == 1) {
    for (; r + 4 <= rows; r += 4) {
      const float* src = a + r * rs;
      std::int64_t s = 0;
      for (; s + 4 <= steps; s += 4) {
        __m128 s0 = _mm_loadu_ps(src + s);
        __m128 s1 = _mm_loadu_ps(src + rs + s);
        __m128 s2 = _mm_loadu_ps(src + 2 * rs + s);
        __m128 s3 = _mm_loadu_ps(src + 3 * rs + s);
        _MM_TRANSPOSE4_PS(s0, s1, s2, s3);
        put4(s, r, s0);
        put4(s + 1, r, s1);
        put4(s + 2, r, s2);
        put4(s + 3, r, s3);
      }
      for (; s < steps; ++s) {
        for (std::int64_t q = r; q < r + 4; ++q) put1(s, q);
      }
    }
  } else if (rs == 1) {
    for (; r + 4 <= rows; r += 4) {
      for (std::int64_t s = 0; s < steps; ++s) put4(s, r, _mm_loadu_ps(a + s * cs + r));
    }
  }
  for (; r < rows; ++r) {
    for (std::int64_t s = 0; s < steps; ++s) put1(s, r);
  }
}

// One MR x (16 * NV) tile of C over p in [p0, p1): the tile lives in
// MR * NV zmm accumulators; each step loads NV vectors of B row p once
// and applies them to every row.  The last vector holds `tail` columns
// (masked).  A(i, p) is broadcast straight from the packed panel: a
// load-port op, where broadcasting from a register would compete with
// the FMA ports (45 -> 60 GFLOP/s on Sapphire Rapids at the serving
// layer-0 shape); a sparse step loads each row's keep mask from the
// panel the same way.
using PanelAvx512 = PackedPanel<8>;

template <int MR, int NV>
__attribute__((target("avx512f"))) void tile_avx512(const GemmOperands& op,
                                                    const PanelAvx512& panel, std::int64_t i0,
                                                    std::int64_t j0, std::int64_t p0,
                                                    std::int64_t p1, std::int64_t tail) {
  __mmask16 mask[NV];
#pragma GCC unroll 2
  for (int v = 0; v < NV; ++v) {
    mask[v] = v + 1 < NV ? __mmask16(0xffff) : __mmask16((1u << tail) - 1u);
  }
  const __m512 vbeta = _mm512_set1_ps(op.beta);
  __m512 acc[MR][NV];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    const float* c_row = op.c + (i0 + r) * op.ldc + j0;
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = _mm512_maskz_loadu_ps(mask[v], c_row + 16 * v);
      if (p0 == 0) acc[r][v] = _mm512_mul_ps(acc[r][v], vbeta);
    }
  }
  for (std::int64_t p = p0; p < p1; ++p) {
    const std::int64_t s = p - p0;
    const float* b_row = op.b + p * op.ldb + j0;
    __m512 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = _mm512_maskz_loadu_ps(mask[v], b_row + 16 * v);
    if (panel.dense[s]) {
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
        __m512 vs;
        asm("vbroadcastss %1, %0" : "=v"(vs) : "m"(panel.a[s][r]));
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          // One rounding per step, as in axpy_scalar.
          acc[r][v] = _mm512_fmadd_ps(vs, bv[v], acc[r][v]);
        }
      }
    } else {
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
        __m512 vs;
        asm("vbroadcastss %1, %0" : "=v"(vs) : "m"(panel.a[s][r]));
        __mmask16 keep;  // a load-port kmovw, not a GPR round trip on port 5
        asm("kmovw %1, %0" : "=k"(keep) : "m"(panel.keep[s][r]));
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = _mm512_mask3_fmadd_ps(vs, bv[v], acc[r][v], keep);
        }
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    float* c_row = op.c + (i0 + r) * op.ldc + j0;
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) _mm512_mask_storeu_ps(c_row + 16 * v, mask[v], acc[r][v]);
  }
}

template <int NV>
void rows_avx512(const GemmOperands& op, const PanelAvx512& panel, std::int64_t i0,
                 std::int64_t rows, std::int64_t j0, std::int64_t p0, std::int64_t p1,
                 std::int64_t tail) {
  switch (rows) {
    case 8: return tile_avx512<8, NV>(op, panel, i0, j0, p0, p1, tail);
    case 7: return tile_avx512<7, NV>(op, panel, i0, j0, p0, p1, tail);
    case 6: return tile_avx512<6, NV>(op, panel, i0, j0, p0, p1, tail);
    case 5: return tile_avx512<5, NV>(op, panel, i0, j0, p0, p1, tail);
    case 4: return tile_avx512<4, NV>(op, panel, i0, j0, p0, p1, tail);
    case 3: return tile_avx512<3, NV>(op, panel, i0, j0, p0, p1, tail);
    case 2: return tile_avx512<2, NV>(op, panel, i0, j0, p0, p1, tail);
    default: return tile_avx512<1, NV>(op, panel, i0, j0, p0, p1, tail);
  }
}

// The AVX2 analogue: MR x (8 * NV) tiles in ymm accumulators; AVX2 has
// no mask registers, so the column tail goes through maskload/maskstore
// and a sparse step blends each row's FMA with its keep lane mask.
using PanelAvx2 = PackedPanel<4>;

template <int MR, int NV>
__attribute__((target("avx2,fma"))) void tile_avx2(const GemmOperands& op,
                                                   const PanelAvx2& panel, std::int64_t i0,
                                                   std::int64_t j0, std::int64_t p0,
                                                   std::int64_t p1, std::int64_t tail) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i mask[NV];
#pragma GCC unroll 2
  for (int v = 0; v < NV; ++v) {
    mask[v] = _mm256_cmpgt_epi32(_mm256_set1_epi32(v + 1 < NV ? 8 : static_cast<int>(tail)), lane);
  }
  const __m256 vbeta = _mm256_set1_ps(op.beta);
  __m256 acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    const float* c_row = op.c + (i0 + r) * op.ldc + j0;
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = _mm256_maskload_ps(c_row + 8 * v, mask[v]);
      if (p0 == 0) acc[r][v] = _mm256_mul_ps(acc[r][v], vbeta);
    }
  }
  for (std::int64_t p = p0; p < p1; ++p) {
    const std::int64_t s = p - p0;
    const float* b_row = op.b + p * op.ldb + j0;
    __m256 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_maskload_ps(b_row + 8 * v, mask[v]);
    if (panel.dense[s]) {
#pragma GCC unroll 4
      for (int r = 0; r < MR; ++r) {
        __m256 vs;
        asm("vbroadcastss %1, %0" : "=x"(vs) : "m"(panel.a[s][r]));
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_fmadd_ps(vs, bv[v], acc[r][v]);
      }
    } else {
#pragma GCC unroll 4
      for (int r = 0; r < MR; ++r) {
        __m256 vs;
        asm("vbroadcastss %1, %0" : "=x"(vs) : "m"(panel.a[s][r]));
        __m256 keep;
        asm("vbroadcastss %1, %0" : "=x"(keep) : "m"(panel.keep[s][r]));
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          const __m256 sum = _mm256_fmadd_ps(vs, bv[v], acc[r][v]);
          acc[r][v] = _mm256_blendv_ps(acc[r][v], sum, keep);
        }
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    float* c_row = op.c + (i0 + r) * op.ldc + j0;
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) _mm256_maskstore_ps(c_row + 8 * v, mask[v], acc[r][v]);
  }
}

template <int NV>
void rows_avx2(const GemmOperands& op, const PanelAvx2& panel, std::int64_t i0,
               std::int64_t rows, std::int64_t j0, std::int64_t p0, std::int64_t p1,
               std::int64_t tail) {
  switch (rows) {
    case 4: return tile_avx2<4, NV>(op, panel, i0, j0, p0, p1, tail);
    case 3: return tile_avx2<3, NV>(op, panel, i0, j0, p0, p1, tail);
    case 2: return tile_avx2<2, NV>(op, panel, i0, j0, p0, p1, tail);
    default: return tile_avx2<1, NV>(op, panel, i0, j0, p0, p1, tail);
  }
}

// Walks rows [r0, r1) of C in kMr-row tiles and k in kGemmKc blocks,
// packing each tile's A panel once, then columns two kLanes-wide vectors
// at a time (`wide`; `narrow` takes a last tile of at most one vector).
// Both tile bodies take (op, panel, i0, rows, j0, p0, p1, tail); the last
// vector holds `tail` columns.
template <std::int64_t kMr, std::int64_t kLanes, typename Tile>
void gemm_tiled(const GemmOperands& op, std::int64_t r0, std::int64_t r1, Tile wide,
                Tile narrow) {
  PackedPanel<kMr> panel;
  for (std::int64_t p0 = 0; p0 == 0 || p0 < op.k; p0 += kGemmKc) {
    const std::int64_t p1 = std::min(op.k, p0 + kGemmKc);
    for (std::int64_t i = r0; i < r1; i += kMr) {
      const std::int64_t rows = std::min(kMr, r1 - i);
      pack_panel(op, i, rows, p0, p1, panel);
      for (std::int64_t j = 0; j < op.n; j += 2 * kLanes) {
        const std::int64_t cols = std::min(2 * kLanes, op.n - j);
        if (cols > kLanes) {
          wide(op, panel, i, rows, j, p0, p1, cols - kLanes);
        } else {
          narrow(op, panel, i, rows, j, p0, p1, cols);
        }
      }
    }
  }
}

#elif defined(HYSCALE_SIMD_NEON)

void copy_neon(const float* src, float* dst, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(dst + i, vld1q_f32(src + i));
  for (; i < n; ++i) dst[i] = src[i];
}

void fma_axpy_neon(float a, const float* x, float* y, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

void dequant_neon(const std::int8_t* q, float scale, float* dst, std::int64_t n) {
  const float32x4_t vs = vdupq_n_f32(scale);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int8x8_t bytes = vld1_s8(q + i);
    const int16x8_t half = vmovl_s8(bytes);
    const int32x4_t lo = vmovl_s16(vget_low_s16(half));
    const int32x4_t hi = vmovl_s16(vget_high_s16(half));
    vst1q_f32(dst + i, vmulq_f32(vcvtq_f32_s32(lo), vs));
    vst1q_f32(dst + i + 4, vmulq_f32(vcvtq_f32_s32(hi), vs));
  }
  for (; i < n; ++i) dst[i] = static_cast<float>(q[i]) * scale;
}

float max_abs_neon(const float* x, std::int64_t n) {
  float32x4_t best = vdupq_n_f32(0.0f);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) best = vmaxq_f32(best, vabsq_f32(vld1q_f32(x + i)));
  float m = vmaxvq_f32(best);
  for (; i < n; ++i) {
    const float v = x[i] < 0.0f ? -x[i] : x[i];
    if (v > m) m = v;
  }
  return m;
}

#endif

// copy/axpy/dequant/max_abs have one vector body per ISA (AVX2 or NEON).
bool use_vector() { return active_tier() != Tier::kScalar; }

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kNeon: return "neon";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
    case Tier::kBest: return "best";
  }
  return "?";
}

std::vector<Tier> supported_tiers() {
  const Tier best = best_supported_tier();
  std::vector<Tier> tiers{Tier::kScalar};
#if defined(HYSCALE_SIMD_X86)
  if (best >= Tier::kAvx2) tiers.push_back(Tier::kAvx2);
#endif
  if (best != Tier::kScalar && best != tiers.back()) tiers.push_back(best);
  return tiers;
}

Tier active_tier() {
  const Tier cap = g_cap.load(std::memory_order_relaxed);
  const Tier best = best_supported_tier();
  if (cap >= best) return best;
#if defined(HYSCALE_SIMD_X86)
  // best is AVX2 or AVX-512 here; an AVX-512 CPU also runs AVX2.
  if (cap >= Tier::kAvx2) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

const char* backend_name() { return tier_name(active_tier()); }

void force_tier(Tier cap) { g_cap.store(cap, std::memory_order_relaxed); }
Tier forced_tier() { return g_cap.load(std::memory_order_relaxed); }

void copy_scalar(const float* src, float* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
}

void dequant_scalar(const std::int8_t* q, float scale, float* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = static_cast<float>(q[i]) * scale;
}

float max_abs_scalar(const float* x, std::int64_t n) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i] < 0.0f ? -x[i] : x[i];
    if (v > m) m = v;
  }
  return m;
}

void gemm_scalar(const GemmOperands& op, std::int64_t r0, std::int64_t r1) {
  gemm_rows_axpy<axpy_scalar>(op, r0, r1);
}

void copy(const float* src, float* dst, std::int64_t n) {
#if defined(HYSCALE_SIMD_X86)
  if (use_vector()) return copy_avx2(src, dst, n);
#elif defined(HYSCALE_SIMD_NEON)
  if (use_vector()) return copy_neon(src, dst, n);
#endif
  copy_scalar(src, dst, n);
}

void axpy(float a, const float* x, float* y, std::int64_t n) {
#if defined(HYSCALE_SIMD_X86)
  if (use_vector()) return fma_axpy_avx2(a, x, y, n);
#elif defined(HYSCALE_SIMD_NEON)
  if (use_vector()) return fma_axpy_neon(a, x, y, n);
#endif
  axpy_scalar(a, x, y, n);
}

void dequant(const std::int8_t* q, float scale, float* dst, std::int64_t n) {
#if defined(HYSCALE_SIMD_X86)
  if (use_vector()) return dequant_avx2(q, scale, dst, n);
#elif defined(HYSCALE_SIMD_NEON)
  if (use_vector()) return dequant_neon(q, scale, dst, n);
#endif
  dequant_scalar(q, scale, dst, n);
}

float max_abs(const float* x, std::int64_t n) {
#if defined(HYSCALE_SIMD_X86)
  if (use_vector()) return max_abs_avx2(x, n);
#elif defined(HYSCALE_SIMD_NEON)
  if (use_vector()) return max_abs_neon(x, n);
#endif
  return max_abs_scalar(x, n);
}

void gemm(const GemmOperands& op, std::int64_t r0, std::int64_t r1) {
#if defined(HYSCALE_SIMD_X86)
  switch (active_tier()) {
    case Tier::kAvx512: return gemm_tiled<8, 16>(op, r0, r1, rows_avx512<2>, rows_avx512<1>);
    case Tier::kAvx2: return gemm_tiled<4, 8>(op, r0, r1, rows_avx2<2>, rows_avx2<1>);
    default: break;
  }
#elif defined(HYSCALE_SIMD_NEON)
  if (use_vector()) return gemm_rows_axpy<fma_axpy_neon>(op, r0, r1);
#endif
  gemm_scalar(op, r0, r1);
}

}  // namespace hyscale::simd
