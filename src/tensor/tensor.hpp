// Dense row-major float matrix — the feature/weight/activation container.
//
// GNN training is dominated by two kernels over this type: irregular row
// gather/scatter (feature aggregation) and dense GEMM (feature update).
// Row-major layout keeps a vertex's feature vector contiguous, which is
// what both kernels want.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hyscale {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::int64_t rows, std::int64_t cols, float fill = 0.0f);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(std::int64_t r, std::int64_t c) { return data_[static_cast<std::size_t>(r * cols_ + c)]; }
  float at(std::int64_t r, std::int64_t c) const { return data_[static_cast<std::size_t>(r * cols_ + c)]; }

  std::span<float> row(std::int64_t r) {
    return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
  }
  std::span<const float> row(std::int64_t r) const {
    return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
  }

  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Resize, discarding contents.
  void resize(std::int64_t rows, std::int64_t cols);

  /// Frobenius norm; used by gradient-sanity tests.
  double norm() const;

  /// Max |a_ij - b_ij|; throws on shape mismatch.  Equal values (equal
  /// infinities too) and two NaNs count as no difference; a NaN facing a
  /// number is +inf, so a tolerance check never passes it.
  static double max_abs_diff(const Tensor& a, const Tensor& b);

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace hyscale
