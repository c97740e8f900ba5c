// Unit and property tests for the deterministic RNG.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace dfly {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformBoundOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformStreamMatchesDivisionReference) {
  // uniform() with the rejection threshold computed on every draw; uniform()
  // skips it when r >= bound. Bounds 2^63 + k have threshold 2^63 - k, so
  // about half their draws fall below the bound and about half are rejected.
  auto reference = [](Rng& rng, std::uint64_t bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = rng.next();
      if (r >= threshold) return r % bound;
    }
  };
  Rng a(99), b(99), bounds(5);
  std::size_t wrong = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bound =
        i % 2 ? 1 + bounds.uniform(100) : (std::uint64_t{1} << 63) + bounds.uniform(1'000);
    wrong += a.uniform(bound) != reference(b, bound);
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(a.state(), b.state());
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIsRoughlyUnbiased) {
  Rng rng(13);
  std::array<int, 10> counts{};
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform(10)];
  for (const int c : counts) EXPECT_NEAR(c, draws / 10, draws / 100);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(19);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  int moved = 0;
  for (int i = 0; i < 100; ++i)
    if (v[i] != i) ++moved;
  EXPECT_GT(moved, 50);
}

TEST(Rng, ForkedStreamsDifferFromParentAndEachOther) {
  Rng parent(23);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(parent.next());
    seen.insert(c1.next());
    seen.insert(c2.next());
  }
  EXPECT_EQ(seen.size(), 300u);  // no collisions across streams
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(31), b(31);
  Rng fa = a.fork(5);
  Rng fb = b.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

class RngBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundProperty, NoModuloBiasOnSmallBounds) {
  // For bound b, frequencies of each residue should be within 5 sigma.
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 1234567 + 1);
  std::vector<int> counts(bound, 0);
  const int draws = 20000 * static_cast<int>(bound);
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform(bound)];
  const double expect = static_cast<double>(draws) / static_cast<double>(bound);
  const double sigma = std::sqrt(expect * (1.0 - 1.0 / static_cast<double>(bound)));
  for (const int c : counts) EXPECT_NEAR(c, expect, 5 * sigma);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundProperty, ::testing::Values(2, 3, 5, 7, 11));

}  // namespace
}  // namespace dfly
