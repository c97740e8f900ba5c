// Router output ports: per-port chunk queues, per-VC credit counters for the
// downstream input buffer, and the per-channel metrics the study reports
// (traffic bytes, saturation time).
//
// Ports are passive state; the Network owns all of them in one array indexed
// by channel id (router * ports_per_router + port) and its event handler
// drives them. A chunk enqueued on an output port physically occupies its
// router's input buffer — that space was reserved (as credits) by the
// upstream sender and is returned when the chunk departs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/chunk.hpp"
#include "topo/dragonfly.hpp"
#include "util/units.hpp"

namespace dfly {

/// One chunk waiting for an output port: the chunk's id plus the two fields
/// arbitration reads (its size and the VC of its current hop), so a scan
/// walks contiguous 12-byte entries and never touches the chunk pool.
struct QueuedChunk {
  ChunkId id;
  std::int32_t bytes;
  std::int32_t vc;
};

/// The fields a dispatch reads come first, so an arrival, a port-free or a
/// credit return touches the port's first cache line for everything but the
/// credits of late VCs.
struct OutPort {
  SimTime busy_until = 0;
  SimTime blocked_since = -1;      ///< start of the current buffers-exhausted interval
  std::vector<QueuedChunk> queue;  ///< chunks awaiting this channel, in arrival order
  Bytes queued_bytes = 0;
  PortKind kind = PortKind::Terminal;
  /// Last VC granted the channel (Arbitration::RoundRobinVc state).
  std::int8_t last_vc_served = -1;
  /// Free space in the downstream input buffer, per VC (hop i uses VC i).
  /// Unused on terminal (ejection) ports: the node sink always accepts.
  /// NetworkParams::validate() keeps every buffer within 32 bits.
  std::array<std::int32_t, kMaxRouteHops> credits{};

  // --- metrics ---
  Bytes traffic = 0;           ///< bytes transmitted on this channel
  SimTime saturated_time = 0;  ///< paper's "link saturation time"

  bool is_terminal() const { return kind == PortKind::Terminal; }

  void begin_blocked(SimTime now) {
    if (blocked_since < 0) blocked_since = now;
  }
  void end_blocked(SimTime now) {
    if (blocked_since >= 0) {
      saturated_time += now - blocked_since;
      blocked_since = -1;
    }
  }
};

}  // namespace dfly
