// Deterministic, seedable random number generation.
//
// The whole study must be bit-reproducible: every source of randomness
// (placement shuffles, adaptive route candidate picks, background traffic
// destinations, workload fluctuation) draws from an Rng forked from a single
// master seed. We use xoshiro256** seeded via SplitMix64 — fast, high quality
// and trivially portable, unlike the unspecified std:: engines' distributions.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace dfly {

/// SplitMix64: used to expand seeds and to fork independent streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** PRNG with helpers for the distributions the simulator needs.
class Rng {
 public:
  /// Seeds the four state words from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  /// Raw 64 random bits.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) with rejection sampling (no modulo bias):
  /// `r` is rejected below (2^64 - bound) % bound. That threshold is below
  /// `bound`, so it is computed only for the rare draw r < bound.
  std::uint64_t uniform(std::uint64_t bound) {
    assert(bound > 0);
    for (;;) {
      const std::uint64_t r = next();
      if (r >= bound || r >= (0 - bound) % bound) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double uniform_double() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform_double(double lo, double hi) { return lo + (hi - lo) * uniform_double(); }

  /// True with probability p.
  bool bernoulli(double p) { return uniform_double() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Forks an independent child stream; children with distinct tags are
  /// statistically independent of each other and of the parent.
  Rng fork(std::uint64_t tag);

  /// The four xoshiro256** state words, so a test can pin how far a stream
  /// has advanced (RoutingDigest hashes them).
  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }

 private:
  std::uint64_t s_[4];
};

}  // namespace dfly
