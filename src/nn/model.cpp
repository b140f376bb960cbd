#include "nn/model.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyscale {

GnnKind parse_gnn_kind(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "gcn") return GnnKind::kGcn;
  if (lower == "sage" || lower == "graphsage") return GnnKind::kSage;
  if (lower == "gat") return GnnKind::kGat;
  throw std::invalid_argument("parse_gnn_kind: unknown model '" + name + "'");
}

const char* gnn_kind_name(GnnKind kind) {
  switch (kind) {
    case GnnKind::kGcn: return "GCN";
    case GnnKind::kSage: return "GraphSAGE";
    case GnnKind::kGat: return "GAT";
  }
  return "?";
}

GnnModel::GnnModel(const ModelConfig& config) : config_(config) {
  if (config.dims.size() < 2) throw std::invalid_argument("GnnModel: need >= 2 dims");
  const int num_layers = config.num_layers();
  ConvKind conv = ConvKind::kGcn;
  if (config.kind == GnnKind::kSage) conv = ConvKind::kSage;
  if (config.kind == GnnKind::kGat) conv = ConvKind::kGat;
  layers_.reserve(static_cast<std::size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    const bool activation = l + 1 < num_layers;  // raw logits at the top
    layers_.emplace_back(conv, config.dims[static_cast<std::size_t>(l)],
                         config.dims[static_cast<std::size_t>(l) + 1], activation,
                         config.seed + static_cast<std::uint64_t>(l) * 1000003ULL);
  }
}

Tensor GnnModel::forward(const MiniBatch& batch, const Tensor& x) {
  if (batch.num_layers() != static_cast<int>(layers_.size()))
    throw std::invalid_argument("GnnModel::forward: batch layer count mismatch");
  // Each layer caches what its own backward needs, so the model keeps no
  // copies of x or of the activations between layers.
  Tensor h;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Tensor h_next;
    layers_[l].forward(batch.blocks[l], l == 0 ? x : h, h_next);
    // The next block's src set is the prefix of this block's dst set, so
    // the rows already line up; truncate when the next block is smaller.
    if (l + 1 < layers_.size()) {
      const std::int64_t need = batch.blocks[l + 1].num_src();
      if (h_next.rows() < need)
        throw std::invalid_argument("GnnModel::forward: block chaining broken");
      if (h_next.rows() > need) {
        Tensor trimmed(need, h_next.cols());
        std::copy(h_next.data(), h_next.data() + need * h_next.cols(), trimmed.data());
        h_next = std::move(trimmed);
      }
    }
    h = std::move(h_next);
  }
  forwarded_ = true;
  return h;
}

void GnnModel::backward(const MiniBatch& batch, const Tensor& d_logits) {
  if (!forwarded_) throw std::logic_error("GnnModel::backward: call forward first");
  Tensor grad = d_logits;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const LayerBlock& block = batch.blocks[li];
    // grad currently has as many rows as the *consumer* of this layer's
    // output needed; pad with zeros up to block.num_dst (vertices sampled
    // but unused downstream receive no gradient).
    if (grad.rows() < block.num_dst) {
      Tensor padded(block.num_dst, grad.cols());
      std::copy(grad.data(), grad.data() + grad.size(), padded.data());
      grad = std::move(padded);
    }
    // Layer 0's input is the feature matrix: nothing trains it, so its
    // input gradient is never computed.
    Tensor d_in;
    layers_[li].backward(block, grad, li == 0 ? nullptr : &d_in);
    grad = std::move(d_in);
  }
}

void GnnModel::zero_grad() {
  for (auto& layer : layers_) {
    layer.weight().zero_grad();
    layer.bias().zero_grad();
    for (Param* extra : layer.extra_params()) extra->zero_grad();
  }
}

std::vector<Param*> GnnModel::parameters() {
  std::vector<Param*> params;
  params.reserve(layers_.size() * 4);
  for (auto& layer : layers_) {
    params.push_back(&layer.weight());
    params.push_back(&layer.bias());
    for (Param* extra : layer.extra_params()) params.push_back(extra);
  }
  return params;
}

std::vector<const Param*> GnnModel::parameters() const {
  std::vector<const Param*> params;
  params.reserve(layers_.size() * 4);
  for (const auto& layer : layers_) {
    params.push_back(&layer.weight());
    params.push_back(&layer.bias());
    for (const Param* extra : layer.extra_params()) params.push_back(extra);
  }
  return params;
}

void GnnModel::copy_values_from(const GnnModel& other) {
  auto dst = parameters();
  auto src = other.parameters();
  if (dst.size() != src.size())
    throw std::invalid_argument("GnnModel::copy_values_from: layer mismatch");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (dst[i]->value.rows() != src[i]->value.rows() ||
        dst[i]->value.cols() != src[i]->value.cols())
      throw std::invalid_argument("GnnModel::copy_values_from: shape mismatch");
    std::copy(src[i]->value.data(), src[i]->value.data() + src[i]->value.size(),
              dst[i]->value.data());
  }
}

std::int64_t GnnModel::num_parameters() const {
  std::int64_t total = 0;
  for (const auto* p : parameters()) total += p->size();
  return total;
}

}  // namespace hyscale
