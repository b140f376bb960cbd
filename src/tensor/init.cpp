#include "tensor/init.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace hyscale {

namespace {

// Below this many elements a chunk is transformed on the calling thread.
constexpr std::size_t kParallelGrain = 4096;

}  // namespace

void xavier_uniform(Tensor& w, std::uint64_t seed) {
  const double fan_in = static_cast<double>(w.rows());
  const double fan_out = static_cast<double>(w.cols());
  const double s = std::sqrt(6.0 / (fan_in + fan_out));
  uniform_init(w, static_cast<float>(-s), static_cast<float>(s), seed);
}

void uniform_init(Tensor& w, float lo, float hi, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (float& v : w.flat()) v = static_cast<float>(rng.uniform(lo, hi));
}

void normal_init(Tensor& w, float stddev, std::uint64_t seed) {
  // The generator is one sequential stream, so the calling thread draws a
  // chunk of uniform pairs in the order normal() would.  The log/sqrt/cos
  // transform, which costs several times the draws, then fans out over
  // the chunk on the global pool; each element's bits do not depend on
  // the thread that computes them.
  Xoshiro256 rng(seed);
  const std::span<float> out = w.flat();
  const std::size_t pooled = std::min(kNormalInitChunk, out.size());
  std::vector<double> u1(pooled), u2(pooled);
  for (std::size_t base = 0; base < out.size(); base += kNormalInitChunk) {
    const std::size_t len = std::min(kNormalInitChunk, out.size() - base);
    for (std::size_t i = 0; i < len; ++i) {
      u1[i] = rng.uniform_nonzero();
      u2[i] = rng.uniform();
    }
    auto transform = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        out[base + i] = static_cast<float>(box_muller(u1[i], u2[i]) * stddev);
    };
    if (len < kParallelGrain) {
      transform(0, len);
    } else {
      ThreadPool::global().parallel_for(0, len, transform);
    }
  }
}

}  // namespace hyscale
