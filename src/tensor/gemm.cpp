#include "tensor/gemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/simd.hpp"

namespace hyscale {

namespace {

// Fan a GEMM out to the pool only when every chunk gets at least this
// many multiply-adds.  Below it, task hand-off and the caller's wait
// cost more than the chunk saves; serving batches (a few million MACs,
// already run on parallel workers) stay on their worker's core.
constexpr std::int64_t kParallelGrainMacs = 8LL << 20;

// Rows per parallel unit: the AVX-512 tile height, so chunk boundaries
// never split a tile.
constexpr std::int64_t kRowUnit = 8;

}  // namespace

void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha, float beta) {
  const std::int64_t m = trans_a ? a.cols() : a.rows();
  const std::int64_t k = trans_a ? a.rows() : a.cols();
  const std::int64_t kb = trans_b ? b.cols() : b.rows();
  const std::int64_t n = trans_b ? b.rows() : b.cols();
  if (k != kb) throw std::invalid_argument("gemm: inner dimension mismatch");
  if (c.rows() != m || c.cols() != n) throw std::invalid_argument("gemm: output shape mismatch");

  simd::GemmOperands op;
  op.n = n;
  op.k = k;
  op.beta = beta;
  op.a = a.data();
  op.a_row_stride = trans_a ? 1 : a.cols();
  op.a_col_stride = trans_a ? a.cols() : 1;
  // The kernel has no alpha: each s = alpha * A(i, p) is rounded once
  // into a scaled copy of A, the same float the product would use.
  std::vector<float> scaled_a;
  if (alpha != 1.0f) {
    scaled_a.assign(a.data(), a.data() + a.size());
    for (float& v : scaled_a) v *= alpha;
    op.a = scaled_a.data();
  }
  op.c = c.data();
  op.ldc = n;
  // The kernel reads B as dense k x n rows, so op(B) = B^T is packed
  // first.  B^T only appears with a weight as B (backward's dZ * W^T),
  // so the panel is small next to the GEMM itself.
  std::vector<float> panel;
  if (trans_b) {
    panel.resize(static_cast<std::size_t>(k * n));
    const float* pb = b.data();
    const std::int64_t ldb = b.cols();
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t p = 0; p < k; ++p) {
        panel[static_cast<std::size_t>(p * n + j)] = pb[j * ldb + p];
      }
    }
    op.b = panel.data();
    op.ldb = n;
  } else {
    op.b = b.data();
    op.ldb = b.cols();
  }

  ThreadPool& pool = ThreadPool::global();
  const std::int64_t units = (m + kRowUnit - 1) / kRowUnit;
  const std::int64_t chunks =
      std::min({static_cast<std::int64_t>(pool.size()), units, m * n * k / kParallelGrainMacs});
  if (chunks < 2) {
    simd::gemm(op, 0, m);
    return;
  }
  pool.parallel_for(
      0, static_cast<std::size_t>(units),
      [&](std::size_t lo, std::size_t hi) {
        simd::gemm(op, static_cast<std::int64_t>(lo) * kRowUnit,
                   std::min(m, static_cast<std::int64_t>(hi) * kRowUnit));
      },
      static_cast<std::size_t>(chunks));
}

void linear_forward(const Tensor& x, const Tensor& w, const Tensor& bias, Tensor& y) {
  if (!bias.empty() && bias.cols() != w.cols())
    throw std::invalid_argument("linear_forward: bias shape");
  if (y.rows() != x.rows() || y.cols() != w.cols()) y.resize(x.rows(), w.cols());
  // Every row of y starts as the bias (or zero) and the GEMM accumulates
  // onto it with beta = 1, so whatever y held before never reaches the
  // result: a beta = 0 pass would compute stale * 0, and an inf or NaN
  // left from an earlier batch would come back as NaN.
  if (bias.empty()) {
    y.zero();
  } else {
    for (std::int64_t i = 0; i < y.rows(); ++i) std::copy_n(bias.data(), y.cols(), y.row(i).data());
  }
  gemm(x, false, w, false, y, 1.0f, 1.0f);
}

}  // namespace hyscale
