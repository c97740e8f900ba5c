// Model validation in the style the paper cites (§II): the CODES dragonfly
// model was validated against Theta "with ping-pong and bisection pairing
// benchmark tests". We validate our network model against its own analytic
// expectations: single-message latency decomposes into serialization + link
// latencies + router delays, and sustained bandwidth approaches link rates.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "replay/replay.hpp"
#include "routing/minimal.hpp"
#include "sim/engine.hpp"
#include "workload/exchange.hpp"

namespace dfly {
namespace {

struct Recorder : MessageSink {
  SimTime last_delivery = -1;
  void on_message_delivered(MsgId, std::uint64_t, SimTime now) override { last_delivery = now; }
};

struct Probe {
  Probe()
      : topo(TopoParams::theta()),
        params(NetworkParams::theta()),
        routing(topo),
        network(engine, topo, params, routing, Rng(1), &rec) {}

  /// Sends one message and returns its end-to-end delivery time.
  SimTime one_way(NodeId src, NodeId dst, Bytes bytes) {
    network.send(src, dst, bytes, 0, false, true);
    engine.run();
    return rec.last_delivery;
  }

  Engine engine;
  DragonflyTopology topo;
  NetworkParams params;
  MinimalRouting routing;
  Recorder rec;
  Network network;
};

TEST(Validation, PingLatencySameRouterMatchesAnalytic) {
  // NIC serialization + terminal link + router delay + ejection
  // serialization + terminal link: one chunk, one router.
  Probe probe;
  const Bytes size = 1024;
  const SimTime measured = probe.one_way(0, 1, size);
  const double bw = probe.params.bandwidth(PortKind::Terminal);
  const SimTime expected = units::transfer_time(size, bw) + probe.params.terminal_latency +
                           probe.params.router_delay + units::transfer_time(size, bw) +
                           probe.params.terminal_latency;
  EXPECT_EQ(measured, expected);
}

TEST(Validation, PingLatencySameRowMatchesAnalytic) {
  // Two routers in one row: + local link serialization, latency, and a
  // second router delay.
  Probe probe;
  const Bytes size = 2048;
  const SimTime measured = probe.one_way(0, 4, size);  // router 0 -> router 1
  const double tbw = probe.params.bandwidth(PortKind::Terminal);
  const double lbw = probe.params.bandwidth(PortKind::LocalRow);
  const SimTime expected = units::transfer_time(size, tbw) + probe.params.terminal_latency +
                           probe.params.router_delay + units::transfer_time(size, lbw) +
                           probe.params.local_latency + probe.params.router_delay +
                           units::transfer_time(size, tbw) + probe.params.terminal_latency;
  EXPECT_EQ(measured, expected);
}

TEST(Validation, CrossGroupLatencyIncludesGlobalLink) {
  // A minimal cross-group path pays >= one global-link latency more than any
  // intra-group path of the same payload.
  Probe intra;
  Probe inter;
  const Bytes size = 4096;
  const SimTime t_intra = intra.one_way(0, 95 * 4, size);       // same group, diagonal
  const SimTime t_inter = inter.one_way(0, 96 * 4 + 3, size);   // group 0 -> group 1
  EXPECT_GT(t_inter, t_intra - 2 * inter.params.router_delay);
  EXPECT_GE(t_inter, inter.params.global_latency);
}

TEST(Validation, LargeTransferApproachesTerminalBandwidth) {
  // A single large message between adjacent-router nodes is bottlenecked by
  // the slower of terminal/local links = local bandwidth (5.25 GiB/s).
  Probe probe;
  const Bytes size = 8 * units::kMiB;
  const SimTime measured = probe.one_way(0, 4, size);
  const double lbw = probe.params.bandwidth(PortKind::LocalRow);
  const double achieved = static_cast<double>(size) / static_cast<double>(measured);
  EXPECT_GT(achieved, 0.85 * lbw) << "pipelined transfer should approach the local link rate";
  EXPECT_LE(achieved, lbw * 1.01);
}

TEST(Validation, SameRouterTransferIsBufferWindowLimited) {
  // Same-router transfers are limited not by the 16 GiB/s terminal links but
  // by the credit window: a chunk occupies the router's 8 KiB terminal input
  // buffer from injection start until ejection completes (+ credit latency),
  // a ~940 ns round trip holding one of 4 chunk slots. Expected throughput is
  // therefore window/RTT (~8-9 B/ns), not the wire rate — a store-and-forward
  // artifact shared by every configuration (see DESIGN.md §4).
  Probe probe;
  const Bytes size = 8 * units::kMiB;
  const SimTime measured = probe.one_way(0, 1, size);
  const double tbw = probe.params.bandwidth(PortKind::Terminal);
  const double achieved = static_cast<double>(size) / static_cast<double>(measured);
  const double chunk = static_cast<double>(probe.params.chunk_bytes);
  const double rtt = chunk / tbw + probe.params.terminal_latency + probe.params.router_delay +
                     chunk / tbw + probe.params.terminal_latency;
  const double window_limit =
      static_cast<double>(probe.params.terminal_vc_buffer) / rtt;
  EXPECT_GT(achieved, 0.9 * window_limit);
  EXPECT_LE(achieved, tbw * 1.01);
}

TEST(Validation, PingPongRoundTripIsSymmetric) {
  // Replay a ping-pong: A sends, B receives then replies. The two directions
  // take the same time (deterministic symmetric topology).
  Trace trace(2);
  trace.rank(0).push_back(TraceOp::send(1, 64 * units::kKiB, 0));
  trace.rank(0).push_back(TraceOp::recv(1, 64 * units::kKiB, 1));
  trace.rank(1).push_back(TraceOp::recv(0, 64 * units::kKiB, 0));
  trace.rank(1).push_back(TraceOp::send(0, 64 * units::kKiB, 1));

  Engine engine;
  DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  Rng rng(2);
  const Placement placement = make_placement(PlacementKind::Contiguous, topo.params(), 2, rng);
  ReplayEngine replay(engine, network, trace, placement);
  replay.start();
  engine.run();
  ASSERT_TRUE(replay.finished());
  // Rank 0 finishes when the pong arrives; the pong leg cannot be shorter
  // than half the round trip minus injection overlap.
  EXPECT_GT(replay.rank_finish_time(0), replay.rank_finish_time(1));
}

TEST(Validation, BisectionPairingSaturatesGlobalLinks) {
  // Pair every node of group 0 with a node of group 1 (the paper's
  // "bisection pairing"): aggregate cross-group bandwidth is then capped by
  // the 120 global links between the two groups, and all of those links (and
  // only links of that pair, under minimal routing from group 0) carry
  // traffic.
  Engine engine;
  DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  const int nodes_per_group = topo.params().routers_per_group() * topo.params().nodes_per_router;
  const Bytes size = 64 * units::kKiB;
  for (int i = 0; i < nodes_per_group; ++i)
    network.send(i, nodes_per_group + i, size);
  engine.run();

  Bytes pair_traffic = 0;
  Bytes elsewhere = 0;
  for (const GlobalLink& link : topo.global_links(0, 1)) {
    const Bytes t = network.port(link.src_router, link.src_port).traffic;
    EXPECT_GT(t, 0) << "every 0->1 global link should be used";
    pair_traffic += t;
  }
  for (GroupId a = 0; a < topo.params().groups; ++a) {
    for (GroupId b = 0; b < topo.params().groups; ++b) {
      if (a == b || (a == 0 && b == 1)) continue;
      for (const GlobalLink& link : topo.global_links(a, b))
        elsewhere += network.port(link.src_router, link.src_port).traffic;
    }
  }
  EXPECT_EQ(pair_traffic, static_cast<Bytes>(nodes_per_group) * size);
  EXPECT_EQ(elsewhere, 0) << "minimal routing must not leak traffic to other group pairs";
}

}  // namespace
}  // namespace dfly
