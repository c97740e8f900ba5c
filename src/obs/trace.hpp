// Flight-recorder chunk path tracing.
//
// The Network drives a ChunkPathTracer through branch-on-null hooks at four
// points of a chunk's life: injection (sampling decision), output-queue
// enqueue at each router, transmit start on each channel, and delivery/drop.
// The tracer keeps state for the *sampled* subset only and forwards completed
// per-hop records to a TraceSink. A sampled chunk is identified by the serial
// on_chunk_injected returns; the Network stows it in Chunk::trace_serial and
// passes it back at every later hook, so the tracer needs no chunk-id map.
//
// Sampling is deterministic: an error-feedback accumulator admits exactly
// round(rate * n) of any n injected chunks (±1), so a configured rate of 0.1
// really records one chunk in ten — no RNG, no long-run drift, reproducible
// across runs.
//
// ChromeTraceWriter renders the recorded hops as Chrome trace-event JSON
// (load in chrome://tracing or https://ui.perfetto.dev): one process per
// router, one thread per output port, one complete ("X") slice per hop
// occupancy of the wire, with queue depth at enqueue and the VC in args.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/chunk.hpp"
#include "topo/dragonfly.hpp"
#include "util/units.hpp"

namespace dfly {

/// One completed hop of a sampled chunk: the chunk occupied `router`'s output
/// `port` from `enqueue_time`, held the wire [start_time, end_time).
struct HopEvent {
  std::uint64_t chunk = 0;  ///< tracer-assigned serial, unique per sampled chunk
  MsgId msg = 0;
  NodeId src = -1;
  NodeId dst = -1;
  RouterId router = -1;
  std::int16_t port = -1;
  std::int8_t vc = -1;
  PortKind kind = PortKind::Terminal;
  Bytes bytes = 0;
  Bytes queue_depth = 0;  ///< output-queue bytes ahead of this chunk at enqueue
  SimTime enqueue_time = 0;
  SimTime start_time = 0;
  SimTime end_time = 0;
};

/// Receives trace records as they complete. Implementations must not assume
/// hop events of different chunks arrive grouped — chunks interleave.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_hop(const HopEvent& hop) = 0;
  /// A chunk passed the sampling decision at injection time.
  virtual void on_chunk_sampled(std::uint64_t /*serial*/, MsgId /*msg*/, NodeId /*src*/,
                                NodeId /*dst*/, Bytes /*bytes*/, SimTime /*now*/) {}
  /// The sampled chunk was delivered and left the fabric.
  virtual void on_chunk_closed(std::uint64_t /*serial*/, SimTime /*now*/) {}
};

class ChunkPathTracer {
 public:
  /// Records per-hop events for `sample_rate` (in [0, 1]) of injected chunks.
  ChunkPathTracer(TraceSink& sink, double sample_rate);

  // --- Network hooks (call sites branch on a null tracer pointer) ---
  /// Sampling decision for a freshly injected chunk. Returns the serial to
  /// store in Chunk::trace_serial, or kNoTraceSerial if unsampled.
  std::uint64_t on_chunk_injected(MsgId msg, NodeId src, NodeId dst, Bytes bytes, SimTime now);
  void on_hop_enqueue(std::uint64_t serial, MsgId msg, NodeId src, NodeId dst, Bytes bytes,
                      RouterId router, int port, PortKind kind, int vc, Bytes queue_depth,
                      SimTime now);
  void on_transmit_start(std::uint64_t serial, SimTime start, SimTime end);
  void on_delivered(std::uint64_t serial, SimTime now);

  double sample_rate() const { return rate_; }
  std::uint64_t chunks_seen() const { return seen_; }
  std::uint64_t chunks_sampled() const { return sampled_; }
  std::uint64_t hops_recorded() const { return hops_; }
  /// Sampled chunks still in the fabric (diagnostics; 0 after a clean drain).
  std::size_t live_chunks() const { return live_ > 0 ? static_cast<std::size_t>(live_) : 0; }

 private:
  TraceSink& sink_;
  double rate_;
  double acc_ = 0;  ///< error-feedback sampling accumulator
  std::uint64_t next_ = 0;  ///< serial of the next sampled chunk
  std::uint64_t seen_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t hops_ = 0;
  std::int64_t live_ = 0;  ///< sampled chunks not yet delivered
  /// Hops enqueued but not yet transmitted, by serial.
  std::unordered_map<std::uint64_t, HopEvent> pending_;
};

/// Buffers hop events and renders them as Chrome trace-event JSON.
class ChromeTraceWriter : public TraceSink {
 public:
  void on_hop(const HopEvent& hop) override { hops_.push_back(hop); }

  const std::vector<HopEvent>& hops() const { return hops_; }

  /// Renders the trace-event JSON document ({"traceEvents": [...]}).
  void render(std::ostream& os) const;
  /// Writes render() to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::vector<HopEvent> hops_;
};

}  // namespace dfly
