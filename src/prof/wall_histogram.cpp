#include "prof/wall_histogram.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dfly::prof {

namespace {
// Octave exponents up to 2^62 keep every bucket bound inside int64 — about
// 146 years in nanoseconds, far past any wall-clock latency worth recording.
constexpr int kMaxExponent = 62;
}  // namespace

WallHistogram::WallHistogram(int sub_bucket_bits) : bits_(sub_bucket_bits) {
  if (bits_ < 0 || bits_ > 8)
    throw std::invalid_argument("wall histogram: sub_bucket_bits must be in [0, 8]");
  const std::size_t sub = std::size_t{1} << bits_;
  // One linear region of `sub` exact buckets for v < sub, then one block of
  // `sub` sub-buckets per octave from 2^bits_ through 2^kMaxExponent.
  counts_.assign(sub + static_cast<std::size_t>(kMaxExponent - bits_ + 1) * sub, 0);
}

std::size_t WallHistogram::index_of(std::int64_t v) const {
  const std::size_t sub = std::size_t{1} << bits_;
  const auto u = static_cast<std::uint64_t>(v);
  if (u < sub) return static_cast<std::size_t>(u);
  const int e = std::bit_width(u) - 1;  // 2^e <= u < 2^(e+1), e >= bits_
  const std::size_t mantissa = static_cast<std::size_t>(u >> (e - bits_)) - sub;
  const std::size_t idx = sub + static_cast<std::size_t>(e - bits_) * sub + mantissa;
  return std::min(idx, counts_.size() - 1);
}

void WallHistogram::add(std::int64_t value_ns) {
  const std::int64_t v = std::max<std::int64_t>(value_ns, 0);
  ++counts_[index_of(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

std::int64_t WallHistogram::bucket_lower(std::size_t i) const {
  const std::size_t sub = std::size_t{1} << bits_;
  if (i < sub) return static_cast<std::int64_t>(i);
  const std::size_t block = (i - sub) / sub;  // octave index from 2^bits_
  const std::size_t mantissa = (i - sub) % sub;
  const int e = static_cast<int>(block) + bits_;
  return static_cast<std::int64_t>((sub + mantissa) << (e - bits_));
}

std::int64_t WallHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample, 1-based; p=0 selects the first sample.
  const auto rank = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return bucket_lower(i);
  }
  return max_;  // unreachable: counts sum to count_
}

}  // namespace dfly::prof
