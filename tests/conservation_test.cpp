// Conservation-law property tests: bytes injected, forwarded and delivered
// must balance exactly across the whole fabric, for every routing algorithm
// and under randomized traffic.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "routing/algorithm.hpp"
#include "sim/engine.hpp"

namespace dfly {
namespace {

struct Totals {
  Bytes injected = 0;   // NIC traffic
  Bytes ejected = 0;    // terminal-port traffic
  Bytes local = 0;      // local channels
  Bytes global = 0;     // global channels
};

Totals tally(const Network& network) {
  Totals t;
  const DragonflyTopology& topo = network.topology();
  for (NodeId n = 0; n < topo.params().total_nodes(); ++n) t.injected += network.nic(n).traffic;
  for (const OutPort& port : network.ports()) {
    switch (port.kind) {
      case PortKind::Terminal: t.ejected += port.traffic; break;
      case PortKind::LocalRow:
      case PortKind::LocalCol: t.local += port.traffic; break;
      case PortKind::Global: t.global += port.traffic; break;
    }
  }
  return t;
}

class ConservationProperty : public ::testing::TestWithParam<RoutingKind> {};

TEST_P(ConservationProperty, BytesBalanceUnderRandomTraffic) {
  Engine engine;
  const DragonflyTopology topo(TopoParams::tiny());
  const auto routing = make_routing(GetParam(), topo);
  Network network(engine, topo, NetworkParams::theta(), *routing, Rng(1));

  Rng traffic(17);
  Bytes sent = 0;
  const int nodes = topo.params().total_nodes();
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<NodeId>(traffic.uniform(nodes));
    auto dst = static_cast<NodeId>(traffic.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Bytes size = 1 + static_cast<Bytes>(traffic.uniform(100 * units::kKB));
    network.send(src, dst, size);
    sent += size;
  }
  engine.set_event_limit(300'000'000);
  engine.run();
  ASSERT_FALSE(engine.hit_event_limit());

  const Totals t = tally(network);
  // Everything sent was injected, ejected and delivered exactly once.
  EXPECT_EQ(t.injected, sent);
  EXPECT_EQ(t.ejected, sent);
  EXPECT_EQ(network.bytes_delivered(), sent);
  // Each byte traverses at least zero and at most kMaxRouteHops-1 internal
  // channels.
  EXPECT_LE(t.local + t.global, static_cast<Bytes>(kMaxRouteHops) * sent);
  // With three groups and random traffic, some bytes must cross groups.
  EXPECT_GT(t.global, 0);
}

INSTANTIATE_TEST_SUITE_P(Routings, ConservationProperty,
                         ::testing::Values(RoutingKind::Minimal, RoutingKind::Adaptive,
                                           RoutingKind::Valiant, RoutingKind::AdaptiveGlobal),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case RoutingKind::Minimal: return std::string("minimal");
                             case RoutingKind::Adaptive: return std::string("adaptive");
                             case RoutingKind::Valiant: return std::string("valiant");
                             case RoutingKind::AdaptiveGlobal: return std::string("adaptive_global");
                           }
                           return std::string("unknown");
                         });

TEST(Conservation, MinimalRoutingGlobalTrafficIsExactlyOneCrossingPerByte) {
  // Under minimal routing, every inter-group byte crosses exactly one global
  // channel; intra-group bytes cross none.
  Engine engine;
  const DragonflyTopology topo(TopoParams::tiny());
  const auto routing = make_routing(RoutingKind::Minimal, topo);
  Network network(engine, topo, NetworkParams::theta(), *routing, Rng(1));
  const Coordinates& c = topo.coords();

  Rng traffic(23);
  Bytes cross_group = 0;
  const int nodes = topo.params().total_nodes();
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<NodeId>(traffic.uniform(nodes));
    auto dst = static_cast<NodeId>(traffic.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Bytes size = 1 + static_cast<Bytes>(traffic.uniform(50000));
    network.send(src, dst, size);
    if (c.group_of_node(src) != c.group_of_node(dst)) cross_group += size;
  }
  engine.run();
  EXPECT_EQ(tally(network).global, cross_group);
}

TEST(Conservation, ChunkCountMatchesCeilDivision) {
  Engine engine;
  const DragonflyTopology topo(TopoParams::tiny());
  const auto routing = make_routing(RoutingKind::Minimal, topo);
  NetworkParams params = NetworkParams::theta();
  Network network(engine, topo, params, *routing, Rng(1));
  // 5000 B at 2048 B chunks = 3 chunks; node 0 -> node 2 is one local hop +
  // ejection = 2 channel traversals per chunk.
  network.send(0, 2, 5000);
  engine.run();
  EXPECT_EQ(network.chunks_forwarded(), 3u * 2u);
}

}  // namespace
}  // namespace dfly
