// Elementwise and row-indexed tensor operations used by the GNN layers.
//
// The `gather_rows` / `scatter_add_rows` pair is the Feature Loader and
// feature-aggregation primitive: gather extracts X' from X (§III-A
// Feature Loader), scatter-add accumulates neighbor messages into a_v
// (Eq. 1).  Both are threaded; gather is bandwidth-bound and is the
// operation whose cost the paper models as Eq. 7.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace hyscale {

/// out[i, :] = src[index[i], :].  out is resized to (index.size(), src.cols()).
void gather_rows(const Tensor& src, std::span<const std::int64_t> index, Tensor& out);

/// dst[index[i], :] += src[i, :].  Sequential per destination row; caller
/// guarantees dst is pre-sized.
void scatter_add_rows(const Tensor& src, std::span<const std::int64_t> index, Tensor& dst);

/// y = max(x, 0), in place allowed (y may alias x via same object).
void relu_forward(const Tensor& x, Tensor& y);

/// dx = x > 0 ? dy : +0 per element (x = +-0 or NaN gives +0; dy passes
/// through unchanged, NaN and inf included).  Branch-free.
void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx);

/// In-place inverted dropout with mask output; keep_prob in (0, 1].
/// mask holds 0 or 1/keep_prob so backward is an elementwise product.
void dropout_forward(Tensor& x, Tensor& mask, double keep_prob, std::uint64_t seed);
void dropout_backward(const Tensor& mask, Tensor& grad);

/// axpy: y += alpha * x (flat).
void axpy(float alpha, const Tensor& x, Tensor& y);

/// y = [a | b] column-wise concatenation; rows must match.
void concat_cols(const Tensor& a, const Tensor& b, Tensor& y);

/// Splits grad of a column concat back into (da, db).
void split_cols(const Tensor& dy, std::int64_t a_cols, Tensor& da, Tensor& db);

/// Row-wise scaling: y[i,:] = x[i,:] * scale[i].
void scale_rows(const Tensor& x, std::span<const float> scale, Tensor& y);

}  // namespace hyscale
