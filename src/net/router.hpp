// Per-router state: output ports with chunk queues, per-VC credit counters
// for the downstream input buffer, and the per-channel metrics the study
// reports (traffic bytes, saturation time).
//
// Routers are passive state; the Network event handler drives them. A chunk
// enqueued on an output port physically occupies this router's input buffer —
// that space was reserved (as credits) by the upstream sender and is returned
// when the chunk departs.
#pragma once

#include <cstdint>
#include <vector>

#include "net/chunk.hpp"
#include "net/params.hpp"
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

struct OutPort {
  PortKind kind = PortKind::Terminal;
  SimTime busy_until = 0;
  std::vector<QueuedChunk> queue;  ///< chunks awaiting this channel, in arrival order
  Bytes queued_bytes = 0;
  /// Free space in the downstream input buffer, per VC. Empty for terminal
  /// (ejection) ports: the node sink always accepts.
  std::vector<Bytes> credits;
  /// Last VC granted the channel (Arbitration::RoundRobinVc state).
  std::int8_t last_vc_served = -1;

  // --- metrics ---
  Bytes traffic = 0;             ///< bytes transmitted on this channel
  SimTime blocked_since = -1;    ///< start of the current buffers-exhausted interval
  SimTime saturated_time = 0;    ///< paper's "link saturation time"

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

class Router {
 public:
  Router(const DragonflyTopology& topo, const NetworkParams& params, RouterId id, int num_vcs);

  OutPort& port(int p) { return ports_[p]; }
  const OutPort& port(int p) const { return ports_[p]; }
  int num_ports() const { return static_cast<int>(ports_.size()); }

 private:
  std::vector<OutPort> ports_;
};

}  // namespace dfly
