// Deterministic, fast pseudo-random number generation.
//
// All stochastic components (graph generators, neighbor samplers, weight
// initialisers) draw from these generators so that every
// experiment in the repository is bit-reproducible from a seed.  We use
// splitmix64 for seeding and xoshiro256** as the workhorse generator —
// both are tiny, fast, and have well-studied statistical quality.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace hyscale {

/// Box–Muller: the standard normal that uniforms u1 in (0, 1) and u2 in
/// [0, 1) map to.  Xoshiro256::normal() and normal_init both go through
/// it, so a pooled fill gives the bits a loop of normal() calls gives.
inline double box_muller(double u1, double u2) {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  return radius * std::cos(2.0 * 3.14159265358979323846 * u2);
}

/// splitmix64: used to expand a single 64-bit seed into generator state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — public-domain generator by Blackman & Vigna.
/// Satisfies UniformRandomBitGenerator so it can feed <random> adaptors.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Lemire's multiply-shift rejection-free
  /// variant (tiny bias < 2^-64, irrelevant for sampling workloads).
  std::uint64_t bounded(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(operator()()) * bound) >> 64);
  }

  /// Uniform float in [0, 1).
  double uniform() { return static_cast<double>(operator()() >> 11) * 0x1.0p-53; }

  /// Uniform float in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform in (0, 1): redraws a zero, so log(u) is finite.
  double uniform_nonzero() {
    double u = 0.0;
    do {
      u = uniform();
    } while (u <= 0.0);
    return u;
  }

  /// Standard normal via Box–Muller (no cached second value; simple and
  /// deterministic across platforms).
  double normal() {
    const double u1 = uniform_nonzero();
    return box_muller(u1, uniform());
  }

  /// Jump function equivalent to 2^128 calls; used to give each worker
  /// thread a decorrelated stream derived from one seed.
  void jump();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t state_[4] = {};
};

}  // namespace hyscale
