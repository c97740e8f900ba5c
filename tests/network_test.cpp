// Unit tests for the packet-level network model: delivery timing, credit
// conservation, traffic accounting and saturation measurement.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include "routing/minimal.hpp"
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

}  // namespace
}  // namespace dfly
