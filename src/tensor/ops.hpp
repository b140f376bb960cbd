// Elementwise and row-indexed tensor operations used by the GNN layers.
//
// `gather_rows` is the Feature Loader primitive: it extracts X' from X
// (§III-A Feature Loader).  It is threaded and bandwidth-bound, and is
// the operation whose cost the paper models as Eq. 7.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace hyscale {

/// out[i, :] = src[index[i], :].  out is resized to (index.size(), src.cols()).
void gather_rows(const Tensor& src, std::span<const std::int64_t> index, Tensor& out);

/// y = max(x, 0), in place allowed (y may alias x via same object).
void relu_forward(const Tensor& x, Tensor& y);

/// dx = x > 0 ? dy : +0 per element (x = +-0 or NaN gives +0; dy passes
/// through unchanged, NaN and inf included).  Branch-free.
void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx);

}  // namespace hyscale
