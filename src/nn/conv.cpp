#include "nn/conv.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace hyscale {

namespace {

// GCN normalisation 1/sqrt((D_u+1)(D_v+1)) with the TRUE graph degrees
// (Eq. 3; the +1 is the standard self-loop of A~ = A + I).  Samplers fill
// src_degrees; hand-built blocks without it fall back to block-local
// degrees (dst in-degree; leaf sources count 0).
std::int64_t dst_degree(const LayerBlock& block, std::int64_t dst) {
  return block.indptr[static_cast<std::size_t>(dst) + 1] -
         block.indptr[static_cast<std::size_t>(dst)];
}

double norm_of(const LayerBlock& block, std::int64_t local) {
  std::int64_t degree = 0;
  if (!block.src_degrees.empty()) {
    degree = block.src_degrees[static_cast<std::size_t>(local)];
  } else if (local < block.num_dst) {
    degree = dst_degree(block, local);
  }
  return 1.0 / std::sqrt(static_cast<double>(degree) + 1.0);
}

}  // namespace

ConvLayer::ConvLayer(ConvKind kind, std::int64_t in_dim, std::int64_t out_dim,
                     bool apply_activation, std::uint64_t seed)
    : kind_(kind), in_dim_(in_dim), out_dim_(out_dim), apply_activation_(apply_activation) {
  if (in_dim <= 0 || out_dim <= 0) throw std::invalid_argument("ConvLayer: dims must be positive");
  const std::int64_t agg_dim = kind == ConvKind::kSage ? 2 * in_dim : in_dim;
  weight_ = Param("W", agg_dim, out_dim);
  bias_ = Param("b", 1, out_dim);
  xavier_uniform(weight_.value, seed);
  bias_.value.zero();
  if (kind == ConvKind::kGat) {
    attn_left_ = Param("a_l", 1, out_dim);
    attn_right_ = Param("a_r", 1, out_dim);
    xavier_uniform(attn_left_.value, seed + 1);
    xavier_uniform(attn_right_.value, seed + 2);
  }
}

std::vector<Param*> ConvLayer::extra_params() {
  if (kind_ != ConvKind::kGat) return {};
  return {&attn_left_, &attn_right_};
}

std::vector<const Param*> ConvLayer::extra_params() const {
  if (kind_ != ConvKind::kGat) return {};
  return {&attn_left_, &attn_right_};
}

void ConvLayer::aggregate_gcn(const LayerBlock& block, const Tensor& h_in, Tensor& out) const {
  out.resize(block.num_dst, in_dim_);
  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    const double nv = norm_of(block, v);
    float* dst_row = out.data() + v * in_dim_;
    // Self loop term: h_v / sqrt((d_v+1)(d_v+1)).
    {
      const auto w = static_cast<float>(nv * nv);
      const float* src_row = h_in.data() + v * in_dim_;
      for (std::int64_t j = 0; j < in_dim_; ++j) dst_row[j] = w * src_row[j];
    }
    for (EdgeId e = block.indptr[static_cast<std::size_t>(v)];
         e < block.indptr[static_cast<std::size_t>(v) + 1]; ++e) {
      const std::int64_t u = block.indices[static_cast<std::size_t>(e)];
      const auto w = static_cast<float>(nv * norm_of(block, u));
      const float* src_row = h_in.data() + u * in_dim_;
      for (std::int64_t j = 0; j < in_dim_; ++j) dst_row[j] += w * src_row[j];
    }
  }
}

void ConvLayer::aggregate_gcn_backward(const LayerBlock& block, const Tensor& dout,
                                       Tensor& dh_in) const {
  // dout: num_dst x in_dim (grad w.r.t. aggregated a_v).
  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    const double nv = norm_of(block, v);
    const float* g = dout.data() + v * in_dim_;
    {
      const auto w = static_cast<float>(nv * nv);
      float* dst = dh_in.data() + v * in_dim_;
      for (std::int64_t j = 0; j < in_dim_; ++j) dst[j] += w * g[j];
    }
    for (EdgeId e = block.indptr[static_cast<std::size_t>(v)];
         e < block.indptr[static_cast<std::size_t>(v) + 1]; ++e) {
      const std::int64_t u = block.indices[static_cast<std::size_t>(e)];
      const auto w = static_cast<float>(nv * norm_of(block, u));
      float* dst = dh_in.data() + u * in_dim_;
      for (std::int64_t j = 0; j < in_dim_; ++j) dst[j] += w * g[j];
    }
  }
}

void ConvLayer::aggregate_sage(const LayerBlock& block, const Tensor& h_in, Tensor& out) const {
  out.resize(block.num_dst, 2 * in_dim_);
  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    float* dst_row = out.data() + v * 2 * in_dim_;
    // Left half: self feature.
    const float* self_row = h_in.data() + v * in_dim_;
    for (std::int64_t j = 0; j < in_dim_; ++j) dst_row[j] = self_row[j];
    // Right half: neighbor mean.
    float* mean = dst_row + in_dim_;
    for (std::int64_t j = 0; j < in_dim_; ++j) mean[j] = 0.0f;
    const EdgeId lo = block.indptr[static_cast<std::size_t>(v)];
    const EdgeId hi = block.indptr[static_cast<std::size_t>(v) + 1];
    if (hi > lo) {
      for (EdgeId e = lo; e < hi; ++e) {
        const std::int64_t u = block.indices[static_cast<std::size_t>(e)];
        const float* src_row = h_in.data() + u * in_dim_;
        for (std::int64_t j = 0; j < in_dim_; ++j) mean[j] += src_row[j];
      }
      const auto inv = static_cast<float>(1.0 / static_cast<double>(hi - lo));
      for (std::int64_t j = 0; j < in_dim_; ++j) mean[j] *= inv;
    }
  }
}

void ConvLayer::aggregate_sage_backward(const LayerBlock& block, const Tensor& dout,
                                        Tensor& dh_in) const {
  // dout: num_dst x 2*in_dim; columns [0,in) for self, [in,2in) for mean.
  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    const float* g = dout.data() + v * 2 * in_dim_;
    float* self_dst = dh_in.data() + v * in_dim_;
    for (std::int64_t j = 0; j < in_dim_; ++j) self_dst[j] += g[j];
    const EdgeId lo = block.indptr[static_cast<std::size_t>(v)];
    const EdgeId hi = block.indptr[static_cast<std::size_t>(v) + 1];
    if (hi > lo) {
      const auto inv = static_cast<float>(1.0 / static_cast<double>(hi - lo));
      const float* mean_grad = g + in_dim_;
      for (EdgeId e = lo; e < hi; ++e) {
        const std::int64_t u = block.indices[static_cast<std::size_t>(e)];
        float* dst = dh_in.data() + u * in_dim_;
        for (std::int64_t j = 0; j < in_dim_; ++j) dst[j] += inv * mean_grad[j];
      }
    }
  }
}

namespace {
constexpr float kLeakySlope = 0.2f;
inline float leaky_relu(float x) { return x > 0.0f ? x : kLeakySlope * x; }
inline float leaky_slope_of(float activated) { return activated > 0.0f ? 1.0f : kLeakySlope; }
}  // namespace

void ConvLayer::forward_gat(const LayerBlock& block, const Tensor& h_in, Tensor& h_out) {
  gat_h_in_ = h_in;  // needed by backward for dW = H^T dZ
  // 1. Linear projection z = h W for every source vertex.
  gat_z_.resize(block.num_src(), out_dim_);
  gemm(h_in, false, weight_.value, false, gat_z_);

  // 2. Per-vertex score halves: s_u = a_l . z_u (source role),
  //    d_v = a_r . z_v (destination role).
  std::vector<float> s(static_cast<std::size_t>(block.num_src()));
  std::vector<float> d(static_cast<std::size_t>(block.num_dst));
  const float* al = attn_left_.value.data();
  const float* ar = attn_right_.value.data();
  for (std::int64_t u = 0; u < block.num_src(); ++u) {
    const float* z = gat_z_.data() + u * out_dim_;
    double acc = 0.0;
    for (std::int64_t j = 0; j < out_dim_; ++j) acc += static_cast<double>(al[j]) * z[j];
    s[static_cast<std::size_t>(u)] = static_cast<float>(acc);
  }
  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    const float* z = gat_z_.data() + v * out_dim_;  // dst prefix convention
    double acc = 0.0;
    for (std::int64_t j = 0; j < out_dim_; ++j) acc += static_cast<double>(ar[j]) * z[j];
    d[static_cast<std::size_t>(v)] = static_cast<float>(acc);
  }

  // 3. Edge scores, stable softmax per destination (self loop included),
  //    and the attention-weighted aggregation.
  gat_escore_.assign(block.indices.size(), 0.0f);
  gat_escore_self_.assign(static_cast<std::size_t>(block.num_dst), 0.0f);
  gat_alpha_.assign(block.indices.size(), 0.0f);
  gat_alpha_self_.assign(static_cast<std::size_t>(block.num_dst), 0.0f);
  aggregated_.resize(block.num_dst, out_dim_);
  aggregated_.zero();

  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    const EdgeId lo = block.indptr[static_cast<std::size_t>(v)];
    const EdgeId hi = block.indptr[static_cast<std::size_t>(v) + 1];
    const float dv = d[static_cast<std::size_t>(v)];
    float max_score =
        leaky_relu(s[static_cast<std::size_t>(v)] + dv);  // self loop score
    gat_escore_self_[static_cast<std::size_t>(v)] = max_score;
    for (EdgeId e = lo; e < hi; ++e) {
      const auto u = static_cast<std::size_t>(block.indices[static_cast<std::size_t>(e)]);
      const float score = leaky_relu(s[u] + dv);
      gat_escore_[static_cast<std::size_t>(e)] = score;
      max_score = std::max(max_score, score);
    }
    double denom = std::exp(static_cast<double>(
        gat_escore_self_[static_cast<std::size_t>(v)] - max_score));
    for (EdgeId e = lo; e < hi; ++e) {
      denom += std::exp(
          static_cast<double>(gat_escore_[static_cast<std::size_t>(e)] - max_score));
    }
    const float alpha_self = static_cast<float>(
        std::exp(static_cast<double>(gat_escore_self_[static_cast<std::size_t>(v)] - max_score)) /
        denom);
    gat_alpha_self_[static_cast<std::size_t>(v)] = alpha_self;
    float* out_row = aggregated_.data() + v * out_dim_;
    const float* z_self = gat_z_.data() + v * out_dim_;
    for (std::int64_t j = 0; j < out_dim_; ++j) out_row[j] += alpha_self * z_self[j];
    for (EdgeId e = lo; e < hi; ++e) {
      const auto u = static_cast<std::size_t>(block.indices[static_cast<std::size_t>(e)]);
      const float alpha = static_cast<float>(
          std::exp(static_cast<double>(gat_escore_[static_cast<std::size_t>(e)] - max_score)) /
          denom);
      gat_alpha_[static_cast<std::size_t>(e)] = alpha;
      const float* z_u = gat_z_.data() + static_cast<std::int64_t>(u) * out_dim_;
      for (std::int64_t j = 0; j < out_dim_; ++j) out_row[j] += alpha * z_u[j];
    }
  }

  // 4. Bias + activation.
  pre_activation_ = aggregated_;
  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    float* row = pre_activation_.data() + v * out_dim_;
    const float* b = bias_.value.data();
    for (std::int64_t j = 0; j < out_dim_; ++j) row[j] += b[j];
  }
  if (apply_activation_) {
    relu_forward(pre_activation_, h_out);
  } else {
    h_out = pre_activation_;
  }
}

void ConvLayer::backward_gat(const LayerBlock& block, const Tensor& dh_out, Tensor* dh_in) {
  // Through activation and bias.
  Tensor d_pre;
  if (apply_activation_) {
    relu_backward(pre_activation_, dh_out, d_pre);
  } else {
    d_pre = dh_out;
  }
  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    const float* row = d_pre.data() + v * out_dim_;
    float* db = bias_.grad.data();
    for (std::int64_t j = 0; j < out_dim_; ++j) db[j] += row[j];
  }

  // dZ accumulates three contributions: the weighted aggregation path and
  // the two attention-score paths (through a_l on sources, a_r on dsts).
  Tensor d_z(block.num_src(), out_dim_);
  std::vector<float> d_s(static_cast<std::size_t>(block.num_src()), 0.0f);
  std::vector<float> d_d(static_cast<std::size_t>(block.num_dst), 0.0f);

  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    const EdgeId lo = block.indptr[static_cast<std::size_t>(v)];
    const EdgeId hi = block.indptr[static_cast<std::size_t>(v) + 1];
    const float* g = d_pre.data() + v * out_dim_;

    // d alpha for each incident edge (and self), plus the aggregation
    // path into dZ.
    const float alpha_self = gat_alpha_self_[static_cast<std::size_t>(v)];
    const float* z_self = gat_z_.data() + v * out_dim_;
    double d_alpha_self = 0.0;
    {
      float* dz = d_z.data() + v * out_dim_;
      for (std::int64_t j = 0; j < out_dim_; ++j) {
        d_alpha_self += static_cast<double>(z_self[j]) * g[j];
        dz[j] += alpha_self * g[j];
      }
    }
    double weighted_sum = alpha_self * d_alpha_self;  // sum_u alpha d_alpha
    std::vector<double> d_alpha(static_cast<std::size_t>(hi - lo));
    for (EdgeId e = lo; e < hi; ++e) {
      const auto u64 = block.indices[static_cast<std::size_t>(e)];
      const float alpha = gat_alpha_[static_cast<std::size_t>(e)];
      const float* z_u = gat_z_.data() + u64 * out_dim_;
      float* dz = d_z.data() + u64 * out_dim_;
      double da = 0.0;
      for (std::int64_t j = 0; j < out_dim_; ++j) {
        da += static_cast<double>(z_u[j]) * g[j];
        dz[j] += alpha * g[j];
      }
      d_alpha[static_cast<std::size_t>(e - lo)] = da;
      weighted_sum += alpha * da;
    }

    // Softmax backward: d e = alpha * (d alpha - sum alpha d alpha);
    // then through LeakyReLU into d_s (source half) and d_d (dst half).
    {
      const double de = alpha_self * (d_alpha_self - weighted_sum) *
                        leaky_slope_of(gat_escore_self_[static_cast<std::size_t>(v)]);
      d_s[static_cast<std::size_t>(v)] += static_cast<float>(de);
      d_d[static_cast<std::size_t>(v)] += static_cast<float>(de);
    }
    for (EdgeId e = lo; e < hi; ++e) {
      const auto u = static_cast<std::size_t>(block.indices[static_cast<std::size_t>(e)]);
      const double de = gat_alpha_[static_cast<std::size_t>(e)] *
                        (d_alpha[static_cast<std::size_t>(e - lo)] - weighted_sum) *
                        leaky_slope_of(gat_escore_[static_cast<std::size_t>(e)]);
      d_s[u] += static_cast<float>(de);
      d_d[static_cast<std::size_t>(v)] += static_cast<float>(de);
    }
  }

  // Score-path contributions: dZ_u += d_s[u] * a_l; dZ_v += d_d[v] * a_r;
  // and the attention-vector gradients.
  const float* al = attn_left_.value.data();
  const float* ar = attn_right_.value.data();
  float* dal = attn_left_.grad.data();
  float* dar = attn_right_.grad.data();
  for (std::int64_t u = 0; u < block.num_src(); ++u) {
    const float ds = d_s[static_cast<std::size_t>(u)];
    if (ds == 0.0f) continue;
    float* dz = d_z.data() + u * out_dim_;
    const float* z = gat_z_.data() + u * out_dim_;
    for (std::int64_t j = 0; j < out_dim_; ++j) {
      dz[j] += ds * al[j];
      dal[j] += ds * z[j];
    }
  }
  for (std::int64_t v = 0; v < block.num_dst; ++v) {
    const float dd = d_d[static_cast<std::size_t>(v)];
    if (dd == 0.0f) continue;
    float* dz = d_z.data() + v * out_dim_;
    const float* z = gat_z_.data() + v * out_dim_;
    for (std::int64_t j = 0; j < out_dim_; ++j) {
      dz[j] += dd * ar[j];
      dar[j] += dd * z[j];
    }
  }

  // Through the projection: dW += H^T dZ; dH = dZ W^T when asked for.
  gemm(gat_h_in_, /*trans_a=*/true, d_z, false, weight_.grad, 1.0f, 1.0f);
  if (dh_in == nullptr) return;
  dh_in->resize(block.num_src(), in_dim_);
  gemm(d_z, false, weight_.value, /*trans_b=*/true, *dh_in);
}

void ConvLayer::forward(const LayerBlock& block, const Tensor& h_in, Tensor& h_out) {
  if (h_in.rows() != block.num_src() || h_in.cols() != in_dim_)
    throw std::invalid_argument("ConvLayer::forward: input shape mismatch");
  if (kind_ == ConvKind::kGat) {
    forward_gat(block, h_in, h_out);
    return;
  }
  if (kind_ == ConvKind::kGcn) {
    aggregate_gcn(block, h_in, aggregated_);
  } else {
    aggregate_sage(block, h_in, aggregated_);
  }
  linear_forward(aggregated_, weight_.value, bias_.value, pre_activation_);
  if (apply_activation_) {
    relu_forward(pre_activation_, h_out);
  } else {
    h_out = pre_activation_;
  }
}

void ConvLayer::backward(const LayerBlock& block, const Tensor& dh_out, Tensor* dh_in) {
  if (dh_out.rows() != block.num_dst || dh_out.cols() != out_dim_)
    throw std::invalid_argument("ConvLayer::backward: grad shape mismatch");
  if (kind_ == ConvKind::kGat) {
    backward_gat(block, dh_out, dh_in);
    return;
  }

  // Through the activation.
  Tensor d_pre;
  if (apply_activation_) {
    relu_backward(pre_activation_, dh_out, d_pre);
  } else {
    d_pre = dh_out;
  }

  // Parameter grads: dW += a^T dPre, db += colsum(dPre).
  gemm(aggregated_, /*trans_a=*/true, d_pre, /*trans_b=*/false, weight_.grad, 1.0f, 1.0f);
  for (std::int64_t i = 0; i < d_pre.rows(); ++i) {
    const float* row = d_pre.data() + i * out_dim_;
    float* b = bias_.grad.data();
    for (std::int64_t j = 0; j < out_dim_; ++j) b[j] += row[j];
  }

  if (dh_in == nullptr) return;

  // Through the update: dA = dPre W^T.
  Tensor d_agg(d_pre.rows(), weight_.value.rows());
  gemm(d_pre, false, weight_.value, /*trans_b=*/true, d_agg);

  // Through the aggregation.
  dh_in->resize(block.num_src(), in_dim_);
  dh_in->zero();
  if (kind_ == ConvKind::kGcn) {
    aggregate_gcn_backward(block, d_agg, *dh_in);
  } else {
    aggregate_sage_backward(block, d_agg, *dh_in);
  }
}

}  // namespace hyscale
