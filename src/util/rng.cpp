#include "util/rng.hpp"

namespace dfly {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // xoshiro256** requires a nonzero state; SplitMix64 output of any seed is
  // astronomically unlikely to be all zero, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::uint64_t tag) {
  // Mix the parent's next output with the tag through SplitMix64 so that
  // forked streams do not overlap the parent sequence.
  SplitMix64 sm(next() ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL));
  return Rng(sm.next());
}

}  // namespace dfly
