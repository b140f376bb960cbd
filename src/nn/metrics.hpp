// Classification accuracy of a batch of logits against its labels.
#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace hyscale {

/// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, std::span<const int> labels);

}  // namespace hyscale
