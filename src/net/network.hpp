// The packet-level dragonfly network model.
//
// Network owns every output port and NIC, implements the event protocol
// (store-and-forward chunks, output-port serialization, credit-based VC flow
// control with credit-return latency) and records the four metrics of the
// study: per-channel traffic, per-channel saturation time, per-source-node
// hop statistics, and (via MessageSink) message completion times.
//
// Protocol per chunk at router i of its route:
//   1. kChunkArrive    — the chunk has fully arrived into router i's input
//                        buffer (space was reserved upstream); it joins the
//                        queue of its output port.
//   2. try_send        — when the port is idle, the first queued chunk whose
//                        VC has enough downstream credits starts transmission
//                        (skipping blocked chunks ahead of it: per-VC flow
//                        control, no head-of-line deadlock). Queue-present but
//                        nothing sendable = "buffers used up" → saturation
//                        time accrues.
//   3. on transmit end — credits for this router's input buffer return to the
//                        upstream sender (one link latency later); the chunk
//                        arrives downstream (kChunkArrive or kDeliver).
//
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "net/message.hpp"
#include "net/nic.hpp"
#include "net/params.hpp"
#include "net/port.hpp"
#include "routing/algorithm.hpp"
#include "sim/engine.hpp"
#include "topo/dragonfly.hpp"
#include "util/rng.hpp"

namespace dfly {

class ChunkPathTracer;

class Network : public EventHandler, public CongestionView {
 public:
  /// All referenced objects must outlive the Network. `sink` may be null.
  Network(Engine& engine, const DragonflyTopology& topo, const NetworkParams& params,
          const RoutingAlgorithm& routing, Rng rng, MessageSink* sink = nullptr);

  void set_sink(MessageSink* sink) { sink_ = sink; }

  /// Installs (or, with nullptr, removes) the flight-recorder chunk tracer
  /// (src/obs/). The tracer must outlive event processing; null (the default)
  /// keeps every hook a branch-on-null no-op.
  void set_tracer(ChunkPathTracer* tracer) { tracer_ = tracer; }

  /// Queues a message for injection at `src`'s NIC (src != dst). May be
  /// called before the simulation starts or from within event processing.
  MsgId send(NodeId src, NodeId dst, Bytes bytes, std::uint64_t user_data = 0,
             bool notify_injected = false, bool notify_delivered = false);

  // EventHandler
  void handle_event(SimTime now, const EventPayload& payload) override;
  /// Prefetches what the event will touch: the chunk's line for an arrival
  /// or a delivery, the port's first two lines for an arrival, a port-free
  /// or a credit return, the NIC for a NIC event.
  void prefetch(const EventPayload& payload) override;
  prof::Layer prof_layer() const override { return prof::Layer::Network; }

  // CongestionView — output-queue occupancy at `router`'s `port`.
  Bytes queued_bytes(RouterId router, int port) const override;

  /// Closes still-open saturation intervals at `end`; call once after run().
  void finalize(SimTime end);

  // --- metric access ---
  const OutPort& port(RouterId router, int port) const {
    return ports_[topo_.channel_id(router, port)];
  }
  /// Every output port, indexed by channel id (DragonflyTopology::channel_id).
  std::span<const OutPort> ports() const { return ports_; }
  const Nic& nic(NodeId n) const { return nics_[n]; }
  struct HopStats {
    std::uint64_t chunks = 0;
    std::uint64_t routers_sum = 0;
    double average() const {
      return chunks ? static_cast<double>(routers_sum) / static_cast<double>(chunks) : 0.0;
    }
  };
  const HopStats& hop_stats(NodeId src) const { return hop_stats_[src]; }

  std::uint64_t chunks_forwarded() const { return totals_.chunks_forwarded; }
  Bytes bytes_delivered() const { return totals_.bytes_delivered; }
  std::size_t messages_in_flight() const { return msgs_.in_flight(); }

  // --- conservation accounting ---
  Bytes bytes_injected() const { return totals_.bytes_injected; }
  Bytes in_fabric_bytes() const { return totals_.in_fabric; }
  /// perfbench shims: the network never drops or retransmits; both are 0.
  Bytes bytes_dropped() const { return 0; }
  Bytes bytes_retransmitted() const { return 0; }
  /// Chunk-conservation audit: every injected byte must be delivered or
  /// still in the fabric.
  bool conservation_ok() const {
    return bytes_injected() == bytes_delivered() + in_fabric_bytes();
  }

  const MessageRecord& message(MsgId id) const { return msgs_[id]; }

  const DragonflyTopology& topology() const { return topo_; }
  const NetworkParams& params() const { return params_; }

 private:
  enum EventKind : std::int32_t {
    kChunkArrive = 1,    // a=chunk, b=channel of its current hop
    kPortFree = 2,       // b=channel
    kCreditToRouter = 3, // a=vc, b=channel, c=bytes
    kCreditToNic = 4,    // b=node, c=bytes
    kNicFree = 5,        // b=node
    kDeliver = 6,        // a=chunk
    kMsgInjected = 7,    // b=msg
  };

  /// Network-wide byte/chunk counters (conservation audit and telemetry).
  struct Totals {
    std::uint64_t chunks_forwarded = 0;
    Bytes bytes_delivered = 0;
    Bytes bytes_injected = 0;
    Bytes in_fabric = 0;
  };

  void try_inject(NodeId node, SimTime now);
  void try_send(int channel, SimTime now);
  void release_if_done(MsgId id);

  Engine& engine_;
  const DragonflyTopology& topo_;
  NetworkParams params_;
  const RoutingAlgorithm& routing_;
  Rng rng_;  ///< routing stream
  MessageSink* sink_;
  ChunkPathTracer* tracer_ = nullptr;

  std::vector<OutPort> ports_;       ///< indexed by channel id
  std::vector<PortKind> port_kind_;  ///< per port index, the same on every router
  std::vector<Nic> nics_;
  ChunkPool chunks_;
  MessagePool msgs_;
  std::vector<HopStats> hop_stats_;
  Totals totals_;
};

}  // namespace dfly
