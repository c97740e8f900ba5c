// Unit tests for the packet-level network model: delivery timing, credit
// conservation, traffic accounting and saturation measurement.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fixed_routing.hpp"
#include "obs/trace.hpp"
#include "routing/minimal.hpp"
#include "routing/valiant.hpp"
#include "sim/engine.hpp"

namespace dfly {
namespace {

struct Recorder : MessageSink {
  std::vector<std::pair<std::uint64_t, SimTime>> injected;
  std::vector<std::pair<std::uint64_t, SimTime>> delivered;
  void on_message_injected(MsgId, std::uint64_t user, SimTime now) override {
    injected.emplace_back(user, now);
  }
  void on_message_delivered(MsgId, std::uint64_t user, SimTime now) override {
    delivered.emplace_back(user, now);
  }
};

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture()
      : topo(TopoParams::tiny()),
        routing(topo),
        network(engine, topo, params, routing, Rng(1), &rec) {}

  Engine engine;
  DragonflyTopology topo;
  NetworkParams params = NetworkParams::theta();
  MinimalRouting routing;
  Recorder rec;
  Network network;
};

TEST_F(NetworkFixture, SingleChunkSameRouterTiming) {
  // Nodes 0 and 1 share router 0 (tiny: 2 nodes/router). One 1000-byte
  // message = one chunk: NIC serialization + terminal latency, then ejection
  // serialization + terminal latency.
  network.send(0, 1, 1000, 7, true, true);
  engine.run();
  const SimTime ser = units::transfer_time(1000, params.bandwidth(PortKind::Terminal));
  ASSERT_EQ(rec.injected.size(), 1u);
  ASSERT_EQ(rec.delivered.size(), 1u);
  EXPECT_EQ(rec.injected[0].first, 7u);
  EXPECT_EQ(rec.injected[0].second, ser);
  EXPECT_EQ(rec.delivered[0].second, ser + params.terminal_latency + params.router_delay + ser +
                                         params.terminal_latency);
}

TEST_F(NetworkFixture, MultiChunkMessagePipelineIsFasterThanStoreAndForward) {
  // 8 KiB = 4 chunks; NIC keeps injecting while the router forwards, so total
  // time is far below 4x the single-chunk path but at least the pure
  // serialization of 4 chunks.
  const Bytes size = 8 * units::kKiB;
  network.send(0, 1, size, 1, true, true);
  engine.run();
  const SimTime chunk_ser = units::transfer_time(params.chunk_bytes, params.bandwidth(PortKind::Terminal));
  ASSERT_EQ(rec.delivered.size(), 1u);
  const SimTime total = rec.delivered[0].second;
  EXPECT_GE(total, 4 * chunk_ser);
  EXPECT_LT(total,
            2 * (4 * chunk_ser + 2 * params.terminal_latency + params.router_delay));
}

TEST_F(NetworkFixture, CreditsFullyRestoredAfterDrain) {
  Rng traffic(3);
  const int nodes = topo.params().total_nodes();
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(traffic.uniform(nodes));
    auto dst = static_cast<NodeId>(traffic.uniform(nodes - 1));
    if (dst >= src) ++dst;
    network.send(src, dst, 1 + static_cast<Bytes>(traffic.uniform(10000)));
  }
  engine.run();
  for (RouterId r = 0; r < topo.params().total_routers(); ++r) {
    for (int p = 0; p < topo.ports_per_router(); ++p) {
      const OutPort& port = network.port(r, p);
      EXPECT_TRUE(port.queue.empty());
      EXPECT_EQ(port.queued_bytes, 0);
      if (port.is_terminal()) continue;  // the node sink needs no credits
      for (const std::int32_t c : port.credits)
        EXPECT_EQ(c, params.vc_buffer(port.kind)) << "router " << r << " port " << p;
    }
  }
  for (NodeId n = 0; n < nodes; ++n) {
    EXPECT_EQ(network.nic(n).credits, params.terminal_vc_buffer);
    EXPECT_TRUE(network.nic(n).queue.empty());
  }
  EXPECT_EQ(network.messages_in_flight(), 0u);
}

TEST_F(NetworkFixture, TrafficAccountingConservesBytes) {
  const Bytes size = 100 * units::kKB;
  network.send(0, topo.params().total_nodes() - 1, size, 0, false, true);
  engine.run();
  EXPECT_EQ(network.bytes_delivered(), size);
  // Ejection terminal channel at the destination carries exactly the payload.
  const Coordinates& c = topo.coords();
  const NodeId dst = topo.params().total_nodes() - 1;
  EXPECT_EQ(network.port(c.router_of_node(dst), c.slot_of_node(dst)).traffic, size);
  // Source NIC injected exactly the payload.
  EXPECT_EQ(network.nic(0).traffic, size);
}

TEST_F(NetworkFixture, HopStatsMatchRouteLengths) {
  // Same-router message: 1 router traversed.
  network.send(0, 1, 100);
  engine.run();
  EXPECT_EQ(network.hop_stats(0).chunks, 1u);
  EXPECT_DOUBLE_EQ(network.hop_stats(0).average(), 1.0);
}

TEST_F(NetworkFixture, NoSaturationOnLightTraffic) {
  network.send(0, 1, 100);
  engine.run();
  network.finalize(engine.now());
  for (const OutPort& port : network.ports()) EXPECT_EQ(port.saturated_time, 0);
}

TEST_F(NetworkFixture, HeavyFanInSaturatesAndStillDrains) {
  // Many nodes hammer one destination node: its terminal channel must
  // saturate upstream buffers, and everything must still complete.
  const NodeId dst = 0;
  const int nodes = topo.params().total_nodes();
  for (NodeId src = 1; src < nodes; ++src) network.send(src, dst, 64 * units::kKiB);
  engine.set_event_limit(50'000'000);
  engine.run();
  ASSERT_FALSE(engine.hit_event_limit()) << "fan-in traffic wedged";
  network.finalize(engine.now());
  EXPECT_EQ(network.bytes_delivered(), static_cast<Bytes>(nodes - 1) * 64 * units::kKiB);
  SimTime total_saturation = 0;
  for (const OutPort& port : network.ports()) total_saturation += port.saturated_time;
  EXPECT_GT(total_saturation, 0) << "fan-in must exhaust some buffers";
}

TEST_F(NetworkFixture, MessagesRecycleUnderOpenLoopLoad) {
  // Repeatedly send and drain: the message pool must not grow unboundedly.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) network.send(0, 3, 4096);
    engine.run();
    EXPECT_EQ(network.messages_in_flight(), 0u);
  }
}

TEST(PendingQueue, KeepsFifoOrderAndOwnsNoStorageWhenIdle) {
  PendingQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u) << "a fresh queue must not allocate";
  MsgId next_in = 0, next_out = 0;
  const auto pop = [&] {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front().msg, next_out);
    EXPECT_EQ(q.front().bytes_left, Bytes{10} * next_out);
    ++next_out;
    q.pop_front();
  };
  // Drain to empty twice, then interleave pushes and pops so the consumed
  // prefix is compacted away while the queue never drains.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 5; ++i, ++next_in) q.push_back(PendingMsg{next_in, Bytes{10} * next_in});
    EXPECT_EQ(q.size(), 5u);
    while (!q.empty()) pop();
    EXPECT_EQ(q.capacity(), 0u) << "a drained queue must free its storage";
  }
  for (int i = 0; i < 1000; ++i) {
    q.push_back(PendingMsg{next_in, Bytes{10} * next_in});
    ++next_in;
    if (i % 3 != 0) pop();
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
  EXPECT_LE(q.capacity(), 4 * q.size()) << "the consumed prefix must not accumulate";
  MsgId expect = next_out;
  for (const PendingMsg& m : q) EXPECT_EQ(m.msg, expect++);
  EXPECT_EQ(expect, next_in);
  while (!q.empty()) pop();
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(NetworkLayout, IdleNicsOwnNoQueueStorage) {
  Engine engine;
  const DragonflyTopology topo(TopoParams::tiny());
  const MinimalRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  network.send(0, 1, 64 * units::kKiB);
  EXPECT_GT(network.nic(0).queue.capacity(), 0u);
  EXPECT_EQ(network.nic(1).queue.capacity(), 0u);
  engine.run();
  for (NodeId n = 0; n < topo.params().total_nodes(); ++n)
    EXPECT_EQ(network.nic(n).queue.capacity(), 0u) << "node " << n;
}

TEST(NetworkParams, ValidationRejectsNonsense) {
  NetworkParams p = NetworkParams::theta();
  p.chunk_bytes = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = NetworkParams::theta();
  p.local_vc_buffer = p.chunk_bytes - 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = NetworkParams::theta();
  p.global_bandwidth_gib = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // Chunk sizes and VC credits are 32-bit: a larger chunk or buffer would be
  // truncated further down, so validation must reject it.
  const Bytes past_int32 = Bytes{1} << 31;
  p = NetworkParams::theta();
  p.chunk_bytes = p.terminal_vc_buffer = p.local_vc_buffer = p.global_vc_buffer = past_int32;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  for (Bytes* buffer : {&p.terminal_vc_buffer, &p.local_vc_buffer, &p.global_vc_buffer}) {
    p = NetworkParams::theta();
    *buffer = past_int32;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  p = NetworkParams::theta();
  p.chunk_bytes = p.terminal_vc_buffer = p.local_vc_buffer = p.global_vc_buffer = past_int32 - 1;
  EXPECT_NO_THROW(p.validate());
  // NaN passes a `<= 0` test, and an infinite bandwidth a `> 0` one.
  for (double* bw : {&p.terminal_bandwidth_gib, &p.local_bandwidth_gib, &p.global_bandwidth_gib}) {
    for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(), -1.0}) {
      p = NetworkParams::theta();
      *bw = bad;
      EXPECT_THROW(p.validate(), std::invalid_argument);
    }
  }
  for (SimTime* delay : {&p.terminal_latency, &p.local_latency, &p.global_latency, &p.router_delay}) {
    p = NetworkParams::theta();
    *delay = -1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    *delay = 0;
    EXPECT_NO_THROW(p.validate());
  }
}

TEST(Network, FullAndPartialChunkHopTimesMatchHandSum) {
  // Bandwidths and latencies that differ per kind, so a hop charged at
  // another kind's rate, or a partial chunk charged as a full one, moves the
  // delivery time.
  NetworkParams params;
  params.chunk_bytes = 3000;
  params.terminal_bandwidth_gib = 4.69;
  params.local_bandwidth_gib = 16;
  params.global_bandwidth_gib = 5.25;
  params.terminal_latency = 70;
  params.local_latency = 130;
  params.global_latency = 900;
  params.router_delay = 300;
  const DragonflyTopology topo(TopoParams::tiny());
  const Coordinates& c = topo.coords();
  // One local hop to the router that owns a global link to group 1, the
  // global hop, then ejection at the link's far end.
  const GlobalLink link = topo.global_links(0, 1)[0];
  RouterId first = -1;
  for (RouterId r = 0; r < topo.params().routers_per_group() && first < 0; ++r)
    if (r != link.src_router && topo.local_port_to(r, link.src_router) >= 0) first = r;
  ASSERT_GE(first, 0);
  const NodeId src = c.node_of(first, 0), dst = c.node_of(link.dst_router, 1);
  Route route;
  route.push(first, topo.local_port_to(first, link.src_router));
  route.push(link.src_router, link.src_port);
  route.push(link.dst_router, 1);
  FixedRouting routing(topo);
  routing.pin(src, dst, route);

  for (const Bytes bytes : {params.chunk_bytes, params.chunk_bytes / 2}) {
    Engine engine;
    Recorder rec;
    Network network(engine, topo, params, routing, Rng(1), &rec);
    network.send(src, dst, bytes, 0, false, true);
    engine.run();
    auto hop = [&](PortKind kind) {
      return units::transfer_time(bytes, params.bandwidth(kind)) + params.latency(kind);
    };
    const SimTime expected = hop(PortKind::Terminal) + params.router_delay +
                             hop(PortKind::LocalRow) + params.router_delay +
                             hop(PortKind::Global) + params.router_delay + hop(PortKind::Terminal);
    ASSERT_EQ(rec.delivered.size(), 1u) << bytes;
    EXPECT_EQ(rec.delivered[0].second, expected) << bytes;
  }
}

TEST(NetworkParams, ThetaMatchesPaperSectionII) {
  const NetworkParams p = NetworkParams::theta();
  EXPECT_DOUBLE_EQ(p.terminal_bandwidth_gib, 16.0);
  EXPECT_DOUBLE_EQ(p.local_bandwidth_gib, 5.25);
  EXPECT_DOUBLE_EQ(p.global_bandwidth_gib, 4.69);
  EXPECT_EQ(p.terminal_vc_buffer, 8 * units::kKiB);
  EXPECT_EQ(p.local_vc_buffer, 8 * units::kKiB);
  EXPECT_EQ(p.global_vc_buffer, 16 * units::kKiB);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine;
    DragonflyTopology topo(TopoParams::tiny());
    NetworkParams params = NetworkParams::theta();
    MinimalRouting routing(topo);
    Recorder rec;
    Network network(engine, topo, params, routing, Rng(42), &rec);
    Rng traffic(9);
    for (int i = 0; i < 100; ++i) {
      const auto src = static_cast<NodeId>(traffic.uniform(topo.params().total_nodes()));
      auto dst = static_cast<NodeId>(traffic.uniform(topo.params().total_nodes() - 1));
      if (dst >= src) ++dst;
      network.send(src, dst, 1 + static_cast<Bytes>(traffic.uniform(50000)), i, false, true);
    }
    engine.run();
    return std::make_pair(engine.now(), rec.delivered);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

struct HopSink : TraceSink {
  std::vector<HopEvent> hops;
  void on_hop(const HopEvent& hop) override { hops.push_back(hop); }
};

// Sends one chunk along `route` with every chunk traced, and checks that the
// hops the tracer decodes from the chunk's channel ids are the route's.
void expect_hops_follow(const DragonflyTopology& topo, NodeId src, NodeId dst,
                        const Route& route) {
  Engine engine;
  FixedRouting routing(topo);
  routing.pin(src, dst, route);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  HopSink sink;
  ChunkPathTracer tracer(sink, 1.0);
  network.set_tracer(&tracer);
  network.send(src, dst, 1000);
  engine.run();
  ASSERT_EQ(network.bytes_delivered(), 1000);
  ASSERT_EQ(static_cast<int>(sink.hops.size()), route.size());
  for (int i = 0; i < route.size(); ++i) {
    SCOPED_TRACE("hop " + std::to_string(i));
    EXPECT_EQ(sink.hops[i].router, route[i].router);
    EXPECT_EQ(sink.hops[i].port, route[i].port);
    EXPECT_EQ(sink.hops[i].vc, route[i].vc);
    EXPECT_EQ(sink.hops[i].kind, topo.port_kind(route[i].port));
  }
  EXPECT_EQ(network.hop_stats(src).routers_sum, static_cast<std::uint64_t>(route.size()));
}

TEST(NetworkRoute, MaximalValiantRouteTravelsAsChannelIds) {
  // 10 groups of 3x3 routers with one global port each: every group pair
  // has one link, so a minimal segment can need 2 local hops on each side of
  // it, and two links of one group can both be 2 hops from a third router.
  TopoParams p;
  p.groups = 10;
  p.rows = 3;
  p.cols = 3;
  p.nodes_per_router = 2;
  p.global_ports_per_router = 1;
  const DragonflyTopology topo(p);
  const MinimalPathTable table(topo);
  const Coordinates& c = topo.coords();
  // Search for the longest admissible route: two 5-hop minimal segments
  // through an intermediate router in a third group, plus the ejection hop.
  auto longest_valiant = [&]() -> Route {
    const RouterId routers = p.total_routers();
    for (RouterId src = 0; src < routers; ++src) {
      for (RouterId via = 0; via < routers; ++via) {
        for (RouterId dst = 0; dst < routers; ++dst) {
          const GroupId gs = c.group_of_router(src), gv = c.group_of_router(via),
                        gd = c.group_of_router(dst);
          if (gs == gv || gv == gd || gs == gd) continue;
          for (std::uint64_t seed = 0; seed < 4; ++seed) {
            Rng rng(seed);
            const Route route = valiant_route(table, src, via, dst, 1, rng);
            if (route.size() == kMaxRouteHops - 1) return route;
          }
        }
      }
    }
    return Route{};
  };
  const Route route = longest_valiant();
  ASSERT_EQ(route.size(), kMaxRouteHops - 1);
  const RouterId r_src = route.first().router, r_dst = route.last().router;
  expect_hops_follow(topo, r_src * p.nodes_per_router, r_dst * p.nodes_per_router + 1, route);
}

TEST(NetworkRoute, SameRouterRouteIsOneEjectionHop) {
  const DragonflyTopology topo(TopoParams::tiny());
  Route route;
  route.push(0, 1);  // nodes 0 and 1 share router 0; node 1 is its slot 1
  expect_hops_follow(topo, 0, 1, route);
}

}  // namespace
}  // namespace dfly
