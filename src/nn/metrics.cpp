#include "nn/metrics.hpp"

#include <stdexcept>

namespace hyscale {

double accuracy(const Tensor& logits, std::span<const int> labels) {
  if (static_cast<std::int64_t>(labels.size()) != logits.rows())
    throw std::invalid_argument("accuracy: label count mismatch");
  if (logits.rows() == 0) return 0.0;
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < logits.rows(); ++i) {
    const float* row = logits.data() + i * logits.cols();
    std::int64_t argmax = 0;
    for (std::int64_t j = 1; j < logits.cols(); ++j) {
      if (row[j] > row[argmax]) argmax = j;
    }
    if (argmax == labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(logits.rows());
}

}  // namespace hyscale
