// L-layer GNN model: forward / backward over a mini-batch, parameter
// access for the Synchronizer, replica management for multi-trainer
// synchronous SGD.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "sampling/minibatch.hpp"
#include "tensor/tensor.hpp"

namespace hyscale {

enum class GnnKind { kGcn, kSage, kGat };

/// Parses "gcn" / "sage" / "gat" (case-insensitive); throws on anything else.
GnnKind parse_gnn_kind(const std::string& name);
const char* gnn_kind_name(GnnKind kind);

struct ModelConfig {
  GnnKind kind = GnnKind::kSage;
  /// dims[0] = f0 (input), dims.back() = number of classes.  The paper
  /// uses 2 layers with hidden 256, i.e. dims = {f0, 256, f2}.
  std::vector<int> dims = {100, 256, 47};
  std::uint64_t seed = 1234;

  int num_layers() const { return static_cast<int>(dims.size()) - 1; }
};

class GnnModel {
 public:
  explicit GnnModel(const ModelConfig& config);

  /// Forward over a mini-batch.  `x` must be the gathered feature matrix
  /// over batch.input_nodes().  Returns logits with batch.seeds.size()
  /// rows.  State needed for backward is cached internally.
  Tensor forward(const MiniBatch& batch, const Tensor& x);

  /// Backward from d(logits).  Parameter gradients are *accumulated*;
  /// call zero_grad() first for a fresh iteration.  Only the parameter
  /// gradients are produced: layer 0 does not compute the gradient
  /// w.r.t. the input features.
  void backward(const MiniBatch& batch, const Tensor& d_logits);

  void zero_grad();

  /// All trainable parameters, layer by layer (W0, b0, W1, b1, ...).
  std::vector<Param*> parameters();
  std::vector<const Param*> parameters() const;

  /// Copies parameter *values* from `other` (shapes must match) —
  /// used to replicate the model onto each trainer.
  void copy_values_from(const GnnModel& other);

  /// Total parameter count and model bytes (the Eq. 13 numerator).
  std::int64_t num_parameters() const;
  double model_bytes() const { return static_cast<double>(num_parameters()) * 4.0; }

  const ModelConfig& config() const { return config_; }

 private:
  ModelConfig config_;
  std::vector<ConvLayer> layers_;
  bool forwarded_ = false;  ///< backward needs the layer caches of a forward
};

}  // namespace hyscale
