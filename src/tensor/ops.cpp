#include "tensor/ops.hpp"

#include <cstring>
#include <stdexcept>

#include "common/thread_pool.hpp"

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

}  // namespace hyscale
