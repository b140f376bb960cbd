// Deterministic weight initialisers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.hpp"

namespace hyscale {

/// Glorot/Xavier uniform: U(-s, s) with s = sqrt(6 / (fan_in + fan_out)).
void xavier_uniform(Tensor& w, std::uint64_t seed);

/// Uniform fill in [lo, hi).
void uniform_init(Tensor& w, float lo, float hi, std::uint64_t seed);

/// normal_init draws this many elements' uniforms before transforming them.
inline constexpr std::size_t kNormalInitChunk = std::size_t{1} << 16;

/// Standard-normal fill scaled by `stddev`, O(elements).  The result is
/// bit-identical to filling the elements in order with
/// `static_cast<float>(rng.normal() * stddev)` from one Xoshiro256(seed).
/// The calling thread draws the uniforms `kNormalInitChunk` elements at a
/// time; the Box–Muller transform of a large chunk fans out on
/// ThreadPool::global(), so never call this from inside a task running on
/// the global pool.
void normal_init(Tensor& w, float stddev, std::uint64_t seed);

}  // namespace hyscale
