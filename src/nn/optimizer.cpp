#include "nn/optimizer.hpp"

#include <stdexcept>

namespace hyscale {

SgdOptimizer::SgdOptimizer(double lr) : lr_(lr) {
  if (lr <= 0.0) throw std::invalid_argument("SgdOptimizer: lr must be positive");
}

void SgdOptimizer::step(const std::vector<Param*>& params) {
  for (Param* p : params) {
    float* value = p->value.data();
    const float* grad = p->grad.data();
    const std::int64_t n = p->value.size();
    for (std::int64_t j = 0; j < n; ++j) value[j] -= static_cast<float>(lr_ * grad[j]);
  }
}

}  // namespace hyscale
