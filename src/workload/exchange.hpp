// Shared building blocks for trace generators.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace dfly {

/// Allocates monotonically increasing tags per ordered (src, dst) rank pair
/// so that concurrent same-pair messages match unambiguously in replay.
class TagAllocator {
 public:
  std::int32_t next(int src, int dst) {
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint32_t>(dst);
    return static_cast<std::int32_t>(counters_[key]++);
  }

 private:
  std::unordered_map<std::uint64_t, std::uint32_t> counters_;
};

/// Emits a symmetric nonblocking exchange of `bytes` between ranks a and b:
/// each posts irecv then isend (a later WaitAll completes the phase).
inline void emit_exchange(Trace& trace, TagAllocator& tags, int a, int b, Bytes bytes) {
  const std::int32_t tag_ab = tags.next(a, b);
  const std::int32_t tag_ba = tags.next(b, a);
  trace.rank(a).push_back(TraceOp::irecv(b, bytes, tag_ba));
  trace.rank(a).push_back(TraceOp::isend(b, bytes, tag_ab));
  trace.rank(b).push_back(TraceOp::irecv(a, bytes, tag_ab));
  trace.rank(b).push_back(TraceOp::isend(a, bytes, tag_ba));
}

/// Appends WaitAll on every rank — the end of a communication phase.
inline void emit_phase_end(Trace& trace) {
  for (int r = 0; r < trace.ranks(); ++r) trace.rank(r).push_back(TraceOp::waitall());
}

/// Deterministic per-key size draw in [lo, hi]: both endpoints of an exchange
/// compute the same value without sharing an Rng.
inline Bytes hashed_size(std::uint64_t seed, std::uint64_t key, Bytes lo, Bytes hi) {
  SplitMix64 sm(seed ^ (key * 0x9e3779b97f4a7c15ULL));
  sm.next();
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<Bytes>(sm.next() % span);
}

/// Rejects a message scale that is not a finite positive multiplier (NaN
/// would reach the float-to-integer cast in scaled(), which is undefined).
inline void check_scale(double scale, const char* workload) {
  if (!(std::isfinite(scale) && scale > 0))
    throw std::invalid_argument(std::string(workload) + ": message scale must be finite and positive");
}

/// Applies the sensitivity scale to one message size (>= 1 byte).
inline Bytes scaled(Bytes bytes, double scale) {
  const auto s = static_cast<Bytes>(static_cast<double>(bytes) * scale + 0.5);
  return s < 1 ? 1 : s;
}

}  // namespace dfly
