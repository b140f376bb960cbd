#include "tensor/ops.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/simd.hpp"

namespace hyscale {

void gather_rows(const Tensor& src, std::span<const std::int64_t> index, Tensor& out) {
  const std::int64_t cols = src.cols();
  out.resize(static_cast<std::int64_t>(index.size()), cols);
  const float* s = src.data();
  float* d = out.data();
  auto copy_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int64_t r = index[i];
      std::memcpy(d + static_cast<std::int64_t>(i) * cols, s + r * cols,
                  static_cast<std::size_t>(cols) * sizeof(float));
    }
  };
  if (index.size() * static_cast<std::size_t>(cols) > (1u << 16)) {
    parallel_for(0, index.size(), copy_range);
  } else {
    copy_range(0, index.size());
  }
}

void scatter_add_rows(const Tensor& src, std::span<const std::int64_t> index, Tensor& dst) {
  if (src.rows() != static_cast<std::int64_t>(index.size()))
    throw std::invalid_argument("scatter_add_rows: index length mismatch");
  const std::int64_t cols = src.cols();
  if (dst.cols() != cols) throw std::invalid_argument("scatter_add_rows: column mismatch");
  for (std::size_t i = 0; i < index.size(); ++i) {
    const float* s = src.data() + static_cast<std::int64_t>(i) * cols;
    float* d = dst.data() + index[i] * cols;
    // fma(1, s[j], d[j]) rounds s[j] + d[j] once, exactly as
    // `d[j] += s[j]` does.
    simd::axpy(1.0f, s, d, cols);
  }
}

void relu_forward(const Tensor& x, Tensor& y) {
  if (y.rows() != x.rows() || y.cols() != x.cols()) y.resize(x.rows(), x.cols());
  const float* px = x.data();
  float* py = y.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) py[i] = px[i] > 0.0f ? px[i] : 0.0f;
}

void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  if (x.rows() != dy.rows() || x.cols() != dy.cols())
    throw std::invalid_argument("relu_backward: shape mismatch");
  dx.resize(x.rows(), x.cols());
  const float* px = x.data();
  const float* pdy = dy.data();
  float* pdx = dx.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) {
    // dy is loaded whether or not it is kept, so the select is a blend
    // and the loop vectorizes; a conditional load would stay a scalar
    // compare-and-branch that mispredicts on ReLU's half-zero masks.
    const float g = pdy[i];
    pdx[i] = px[i] > 0.0f ? g : 0.0f;
  }
}

void dropout_forward(Tensor& x, Tensor& mask, double keep_prob, std::uint64_t seed) {
  if (keep_prob <= 0.0 || keep_prob > 1.0)
    throw std::invalid_argument("dropout_forward: keep_prob must be in (0,1]");
  mask.resize(x.rows(), x.cols());
  if (keep_prob == 1.0) {
    mask.fill(1.0f);
    return;
  }
  Xoshiro256 rng(seed);
  const auto scale = static_cast<float>(1.0 / keep_prob);
  float* px = x.data();
  float* pm = mask.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) {
    if (rng.uniform() < keep_prob) {
      pm[i] = scale;
      px[i] *= scale;
    } else {
      pm[i] = 0.0f;
      px[i] = 0.0f;
    }
  }
}

void dropout_backward(const Tensor& mask, Tensor& grad) {
  if (mask.rows() != grad.rows() || mask.cols() != grad.cols())
    throw std::invalid_argument("dropout_backward: shape mismatch");
  const float* pm = mask.data();
  float* pg = grad.data();
  const std::int64_t n = grad.size();
  for (std::int64_t i = 0; i < n; ++i) pg[i] *= pm[i];
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols())
    throw std::invalid_argument("axpy: shape mismatch");
  const float* px = x.data();
  float* py = y.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

void concat_cols(const Tensor& a, const Tensor& b, Tensor& y) {
  if (a.rows() != b.rows()) throw std::invalid_argument("concat_cols: row mismatch");
  y.resize(a.rows(), a.cols() + b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    std::memcpy(y.data() + i * y.cols(), a.data() + i * a.cols(),
                static_cast<std::size_t>(a.cols()) * sizeof(float));
    std::memcpy(y.data() + i * y.cols() + a.cols(), b.data() + i * b.cols(),
                static_cast<std::size_t>(b.cols()) * sizeof(float));
  }
}

void split_cols(const Tensor& dy, std::int64_t a_cols, Tensor& da, Tensor& db) {
  if (a_cols < 0 || a_cols > dy.cols()) throw std::invalid_argument("split_cols: bad split");
  const std::int64_t b_cols = dy.cols() - a_cols;
  da.resize(dy.rows(), a_cols);
  db.resize(dy.rows(), b_cols);
  for (std::int64_t i = 0; i < dy.rows(); ++i) {
    std::memcpy(da.data() + i * a_cols, dy.data() + i * dy.cols(),
                static_cast<std::size_t>(a_cols) * sizeof(float));
    std::memcpy(db.data() + i * b_cols, dy.data() + i * dy.cols() + a_cols,
                static_cast<std::size_t>(b_cols) * sizeof(float));
  }
}

void scale_rows(const Tensor& x, std::span<const float> scale, Tensor& y) {
  if (static_cast<std::int64_t>(scale.size()) != x.rows())
    throw std::invalid_argument("scale_rows: scale length mismatch");
  y.resize(x.rows(), x.cols());
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    const float s = scale[static_cast<std::size_t>(i)];
    const float* px = x.data() + i * x.cols();
    float* py = y.data() + i * x.cols();
    for (std::int64_t j = 0; j < x.cols(); ++j) py[j] = px[j] * s;
  }
}

}  // namespace hyscale
