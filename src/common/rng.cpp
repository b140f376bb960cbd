#include "common/rng.hpp"

namespace hyscale {

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                            0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (jump & (1ULL << bit)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      operator()();
    }
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

}  // namespace hyscale
