// Plain SGD over Param sets.  Synchronous SGD (§II-B) averages
// gradients across trainers *before* stepping, so the optimizer only
// ever sees one (averaged) gradient per parameter per iteration —
// identical to single-device large-batch training.
#pragma once

#include <vector>

#include "nn/param.hpp"

namespace hyscale {

class SgdOptimizer {
 public:
  explicit SgdOptimizer(double lr);
  /// Applies one update using each param's current .grad.
  void step(const std::vector<Param*>& params);

 private:
  double lr_;
};

}  // namespace hyscale
