// Packet chunks and their pool.
//
// A chunk is the unit of transfer, arbitration and buffering. Chunks are
// pool-allocated and recycled at delivery; ChunkId is a stable index into the
// pool (0, 1, 2, ...), small enough to travel inside an EventPayload. Chunk
// storage is block-allocated (4096 chunks per block), so a growing pool never
// relocates existing chunks and a Chunk& stays valid across allocate().
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "routing/route.hpp"
#include "util/units.hpp"

namespace dfly {

using ChunkId = std::uint32_t;
using MsgId = std::uint32_t;

/// Flight-recorder serial of a chunk the tracer is not sampling.
inline constexpr std::uint64_t kNoTraceSerial = ~std::uint64_t{0};

/// Exactly two cache lines; unaligned, most 128-byte chunks would straddle three.
struct alignas(64) Chunk {
  MsgId msg = 0;
  std::int32_t bytes = 0;
  std::int8_t hop_idx = 0;  ///< index of the route hop whose router holds the chunk
  /// Tracer sampling identity. The serial travels with the chunk, so the
  /// tracer needs no chunk-id map; kNoTraceSerial means "not sampled".
  std::uint64_t trace_serial = kNoTraceSerial;
  Route route;
};
static_assert(sizeof(Chunk) == 128, "a chunk must fill exactly two cache lines");
static_assert(alignof(Chunk) == 64, "a chunk must start on a cache line");

class ChunkPool {
 public:
  static constexpr std::size_t kBlockSize = 4096;
  /// Pool capacity; allocation past it is a bug, and the checkpoint loader
  /// rejects larger pools.
  static constexpr std::uint32_t kMaxChunks = std::uint32_t{1} << 22;

  ChunkId allocate() {
    if (!free_.empty()) {
      const ChunkId id = free_.back();
      free_.pop_back();
      return id;
    }
    assert(size_ < kMaxChunks && "chunk pool exhausted");
    if (size_ % kBlockSize == 0) blocks_.push_back(std::make_unique<Chunk[]>(kBlockSize));
    return size_++;
  }

  void release(ChunkId id) {
    (*this)[id] = Chunk{};
    free_.push_back(id);
  }

  Chunk& operator[](ChunkId id) { return blocks_[id / kBlockSize][id % kBlockSize]; }
  const Chunk& operator[](ChunkId id) const { return blocks_[id / kBlockSize][id % kBlockSize]; }

  /// True when `id` names a slot that exists (allocated or free) — the
  /// checkpoint loader's bounds check.
  bool valid(ChunkId id) const { return id < size_; }

  /// Slots ever created (allocated or free).
  std::size_t capacity() const { return size_; }

  // --- checkpoint support: raw slot/free-list access ---
  // The free list's order matters (allocate pops from the back), so restore
  // takes it verbatim rather than recomputing it.
  const std::vector<ChunkId>& free_list() const { return free_; }
  /// Recreates the pool with `size` value-initialized slots and an empty free
  /// list; the caller then fills live slots through operator[] and installs
  /// the free list with set_free_list.
  void restore(std::uint32_t size) {
    blocks_.clear();
    for (std::size_t made = 0; made < size; made += kBlockSize)
      blocks_.push_back(std::make_unique<Chunk[]>(kBlockSize));
    size_ = size;
    free_.clear();
  }
  /// Installs a restored free list verbatim without touching the slots.
  void set_free_list(std::vector<ChunkId> free_list) { free_ = std::move(free_list); }

 private:
  std::vector<std::unique_ptr<Chunk[]>> blocks_;
  std::uint32_t size_ = 0;  ///< slots ever created
  std::vector<ChunkId> free_;
};

}  // namespace dfly
