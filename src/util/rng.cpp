#include "util/rng.hpp"

#include <cassert>

namespace dfly {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // xoshiro256** requires a nonzero state; SplitMix64 output of any seed is
  // astronomically unlikely to be all zero, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_double(double lo, double hi) {
  return lo + (hi - lo) * uniform_double();
}

bool Rng::bernoulli(double p) { return uniform_double() < p; }

Rng Rng::fork(std::uint64_t tag) {
  // Mix the parent's next output with the tag through SplitMix64 so that
  // forked streams do not overlap the parent sequence.
  SplitMix64 sm(next() ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL));
  return Rng(sm.next());
}

}  // namespace dfly
