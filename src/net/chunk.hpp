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
inline constexpr std::uint32_t kNoTraceSerial = ~std::uint32_t{0};

/// Exactly one cache line. The route is stored as channel ids
/// (router * ports_per_router + port, DragonflyTopology::channel_id); the VC
/// of hop i is i, as in Route.
struct alignas(64) Chunk {
  MsgId msg = 0;
  std::int32_t bytes = 0;
  /// Tracer sampling identity. The serial travels with the chunk, so the
  /// tracer needs no chunk-id map; kNoTraceSerial means "not sampled".
  std::uint32_t trace_serial = kNoTraceSerial;
  std::int8_t hop_idx = 0;  ///< index of the route hop whose router holds the chunk
  std::int8_t hops = 0;     ///< route length
  std::int32_t channel[kMaxRouteHops];  ///< channel of each route hop
};
static_assert(sizeof(Chunk) == 64, "a chunk must fill exactly one cache line");
static_assert(alignof(Chunk) == 64, "a chunk must start on a cache line");

class ChunkPool {
 public:
  static constexpr std::size_t kBlockSize = 4096;
  /// Pool capacity (4M chunks, 256 MiB of slots); allocating past it is a bug.
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

 private:
  std::vector<std::unique_ptr<Chunk[]>> blocks_;
  std::uint32_t size_ = 0;  ///< slots ever created
  std::vector<ChunkId> free_;
};

}  // namespace dfly
