// Register-tiled, threaded single-precision GEMM.
//
// This is the feature-update kernel (Eq. 2 / Eq. 12 in the paper): the
// MLP in every GNN layer is one GEMM per direction.  The paper maps it to
// MKL on CPUs, cuBLAS-backed ops on GPUs, and a systolic array on FPGAs;
// here the CPU reference implementation carries the real numerics while
// the device cost models (device/cost_model.hpp) supply accelerator
// timings.
//
// gemm() validates shapes, packs op(B) into a dense k x n panel when
// trans_b is set (B^T only ever holds a weight), reads a transposed A
// through its stride, folds alpha != 1 into a scaled copy of A, and
// hands row ranges of C to simd::gemm — one register-tiled micro-kernel
// for all four layouts, dispatched at runtime to AVX-512F, AVX2, NEON or
// scalar (see simd.hpp).  Each C element is one chain of fused
// multiply-adds over p ascending, so the result is bit-identical on
// every tier.
//
// Parallel grain: the GEMM fans out to the global pool only when every
// chunk gets at least 8M multiply-adds (chunks = min(pool size,
// MACs / 8M)); smaller GEMMs run on the calling thread.  On a 4-vCPU
// Sapphire Rapids VM, splitting a 2-8M-MAC GEMM cost 35-100 % more CPU
// time for at most 1.7x less wall time, while 4 chunks of a 62M-MAC GEMM
// cut wall time 2.5-3x at about equal CPU time.  So a serving batch (a
// few million MACs, already on a parallel worker) stays on one core,
// and training's layer-0 GEMMs (hundreds of millions of MACs) fan out.
#pragma once

#include "tensor/tensor.hpp"

namespace hyscale {

/// C = alpha * op(A) * op(B) + beta * C.
/// op(X) = X or X^T depending on the trans flags.  Shapes are validated.
/// Parallelised over 8-row blocks of C via the global thread pool once
/// the work passes the grain above.  C must not alias A or B.
void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha = 1.0f, float beta = 0.0f);

/// y = x * W + broadcast(bias); the common forward-layer case.
/// `bias` may be empty (no bias).  Each row of y starts as the bias (or
/// zero) and the GEMM's FMA chain accumulates x * W onto it, so nothing
/// y held before the call reaches the result.
void linear_forward(const Tensor& x, const Tensor& w, const Tensor& bias, Tensor& y);

}  // namespace hyscale
