#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hyscale {

namespace {
std::size_t checked_size(std::int64_t rows, std::int64_t cols) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("Tensor: negative shape");
  return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
}
}  // namespace

Tensor::Tensor(std::int64_t rows, std::int64_t cols, float fill)
    : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Tensor::resize(std::int64_t rows, std::int64_t cols) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("Tensor::resize: negative shape");
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<std::size_t>(rows * cols), 0.0f);
}

double Tensor::norm() const {
  double sum = 0.0;
  for (float v : data_) sum += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(sum);
}

double Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("Tensor::max_abs_diff: shape mismatch");
  double best = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    const float x = a.data_[i];
    const float y = b.data_[i];
    if (x == y || (std::isnan(x) && std::isnan(y))) continue;
    // NaN against a number: any comparison with NaN is false, so
    // std::max would drop it and report the mismatch as 0.
    if (std::isnan(x) || std::isnan(y)) return std::numeric_limits<double>::infinity();
    best = std::max(best, std::abs(static_cast<double>(x) - y));
  }
  return best;
}

}  // namespace hyscale
