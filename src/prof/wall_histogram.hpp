// HDR-style log-linear histogram for wall-clock latencies (nanoseconds).
//
// Values are binned into power-of-two octaves, each subdivided into
// 2^sub_bucket_bits equal-width sub-buckets — constant relative error
// (~1/2^bits) across twelve decades with a small fixed-size bucket array and
// O(1) insertion. This is the recording scheme of HdrHistogram, sized for the
// profiler's needs: event-dispatch times (tens of ns) and barrier waits
// (up to seconds) share one configuration.
//
// The histogram is wall-clock-only instrumentation: it never feeds back into
// the simulation, so it needs no checkpoint support and no determinism
// guarantees beyond its own arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dfly::prof {

class WallHistogram {
 public:
  /// `sub_bucket_bits` in [0, 8]: each octave splits into 2^bits sub-buckets
  /// (the profiler uses 3: Profiler::kHistBucketBits). Throws std::invalid_argument
  /// outside that range.
  explicit WallHistogram(int sub_bucket_bits = 3);

  /// Records one latency. Negative values clamp to 0 (a non-monotonic clock
  /// step must not corrupt the bucket index); values beyond the top bucket
  /// clamp into it. min/max/sum always use the clamped-at-zero value, so
  /// totals stay consistent with the buckets.
  void add(std::int64_t value_ns);

  std::uint64_t count() const { return count_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return count_ ? max_ : 0; }
  std::int64_t sum() const { return sum_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }

  /// Value at percentile p (in [0, 100]): the lower bound of the bucket
  /// holding the p-th sample — a conservative estimate, exact for the small
  /// linear buckets. Returns 0 for an empty histogram; p clamps into range.
  std::int64_t percentile(double p) const;

  int sub_bucket_bits() const { return bits_; }
  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }
  /// Inclusive lower bound of bucket `i` in ns.
  std::int64_t bucket_lower(std::size_t i) const;

 private:
  std::size_t index_of(std::int64_t v) const;

  int bits_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::int64_t sum_ = 0;
};

}  // namespace dfly::prof
