// GNN convolution layers over bipartite mini-batch blocks.
//
// All layers follow the aggregate-update paradigm (Eqs. 1-2):
//   GCN  (Eq. 3): a_v = sum_{u in N(v) u {v}} h_u / sqrt(d(v) d(u));
//                 h'_v = act(a_v W + b)
//   SAGE (Eq. 4): a_v = h_v || mean_{u in N(v)} h_u;
//                 h'_v = act(a_v W + b)
//   GAT  (Velickovic et al., single head): z = h W;
//                 e_uv = LeakyReLU(a_l . z_u + a_r . z_v);
//                 alpha = softmax_v(e);  h'_v = act(sum alpha_uv z_u + b)
// GAT demonstrates the paper's claim that the aggregate-update design is
// model-agnostic (§II-A): attention is just a data-dependent aggregation
// operator, so the runtime, cost models and protocol are untouched.
// Degrees are the block-local sampled degrees plus the self loop — the
// standard mini-batch estimator (matching PyG's GCNConv on sampled
// blocks).  Forward caches everything backward needs; backward produces
// the parameter gradients, and the gradient w.r.t. the layer input only
// when the caller asks for it: layers above the first need it to chain,
// while the first layer's input is the feature matrix, which SGD never
// updates, so GnnModel skips that work (Eq. 10: the first layer's
// backward re-runs only the update).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/param.hpp"
#include "sampling/minibatch.hpp"
#include "tensor/tensor.hpp"

namespace hyscale {

enum class ConvKind { kGcn, kSage, kGat };

class ConvLayer {
 public:
  /// `apply_activation` is false for the output layer (raw logits).
  ConvLayer(ConvKind kind, std::int64_t in_dim, std::int64_t out_dim, bool apply_activation,
            std::uint64_t seed);

  /// h_in has block.num_src() rows; output has block.num_dst rows.
  void forward(const LayerBlock& block, const Tensor& h_in, Tensor& h_out);

  /// dh_out has block.num_dst rows.  Accumulates into weight_.grad /
  /// bias_.grad (call zero_grad between iterations unless accumulation is
  /// intended).  A non-null dh_in is resized to num_src rows and receives
  /// the input gradient; with nullptr the input-gradient work is skipped
  /// (GCN/SAGE: the dPre W^T GEMM, the aggregation backward and the
  /// zero-fill; GAT: the final dZ W^T) and the parameter gradients are
  /// bit-identical either way.
  void backward(const LayerBlock& block, const Tensor& dh_out, Tensor* dh_in);

  ConvKind kind() const { return kind_; }
  std::int64_t in_dim() const { return in_dim_; }
  std::int64_t out_dim() const { return out_dim_; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }

  /// Extra trainable parameters beyond (W, b): the attention vectors for
  /// GAT, empty for GCN/SAGE.
  std::vector<Param*> extra_params();
  std::vector<const Param*> extra_params() const;

  /// MAC count of the update GEMM for a batch with `num_dst` rows
  /// (the Eq. 12 numerator).
  double update_macs(std::int64_t num_dst) const {
    return static_cast<double>(num_dst) * static_cast<double>(weight_.value.rows()) *
           static_cast<double>(weight_.value.cols());
  }

 private:
  void aggregate_gcn(const LayerBlock& block, const Tensor& h_in, Tensor& out) const;
  void aggregate_gcn_backward(const LayerBlock& block, const Tensor& dout, Tensor& dh_in) const;
  void aggregate_sage(const LayerBlock& block, const Tensor& h_in, Tensor& out) const;
  void aggregate_sage_backward(const LayerBlock& block, const Tensor& dout, Tensor& dh_in) const;
  void forward_gat(const LayerBlock& block, const Tensor& h_in, Tensor& h_out);
  void backward_gat(const LayerBlock& block, const Tensor& dh_out, Tensor* dh_in);

  ConvKind kind_;
  std::int64_t in_dim_;
  std::int64_t out_dim_;
  bool apply_activation_;
  Param weight_;  ///< [agg_dim, out_dim]; agg_dim = in (GCN/GAT) or 2*in (SAGE)
  Param bias_;    ///< [1, out_dim]
  Param attn_left_;   ///< GAT only: a_l, [1, out_dim]
  Param attn_right_;  ///< GAT only: a_r, [1, out_dim]

  // Forward caches for the most recent batch.
  Tensor aggregated_;     ///< a_v, num_dst x agg_dim
  /// a_v W + b before act.  Each row starts as b, the accumulator's
  /// start value, and linear_forward's FMA chain adds a_v W onto it; no
  /// value from an earlier batch survives into the next.
  Tensor pre_activation_;
  // GAT forward caches.
  Tensor gat_h_in_;                   ///< layer input (needed for dW)
  Tensor gat_z_;                      ///< h_in W, num_src x out_dim
  std::vector<float> gat_alpha_;      ///< attention coefficient per edge slot
  std::vector<float> gat_alpha_self_; ///< self-loop attention per dst
  std::vector<float> gat_escore_;     ///< pre-softmax LeakyReLU'd scores per edge
  std::vector<float> gat_escore_self_;
};

}  // namespace hyscale
