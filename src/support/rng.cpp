#include "support/rng.hpp"

namespace ppde::support {

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& limb : s_) limb = splitmix64(x);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

}  // namespace ppde::support
