// Unit and property tests for the dragonfly topology.
#include "topo/dragonfly.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "net/network.hpp"
#include "place/placement.hpp"
#include "replay/replay.hpp"
#include "routing/adaptive.hpp"
#include "routing/minimal.hpp"
#include "workload/synthetic.hpp"

namespace dfly {
namespace {

TEST(TopoParams, ThetaMatchesPaperSectionII) {
  const TopoParams p = TopoParams::theta();
  EXPECT_EQ(p.groups, 9);
  EXPECT_EQ(p.rows, 6);
  EXPECT_EQ(p.cols, 16);
  EXPECT_EQ(p.routers_per_group(), 96);
  EXPECT_EQ(p.total_routers(), 864);
  EXPECT_EQ(p.nodes_per_router, 4);
  EXPECT_EQ(p.total_nodes(), 3456);
  // "each row of 16 routers forms a chassis, and 3 such chassis form a cabinet"
  EXPECT_EQ(p.chassis_per_group(), 6);
  EXPECT_EQ(p.cabinets_per_group(), 2);
  EXPECT_NO_THROW(p.validate());
}

TEST(TopoParams, ValidationRejectsBadConfigs) {
  TopoParams p = TopoParams::tiny();
  p.groups = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = TopoParams::tiny();
  p.global_ports_per_router = 3;  // 24 ports % 2 peers == 0, still fine
  EXPECT_NO_THROW(p.validate());
  p.groups = 6;  // 24 % 5 != 0: uneven peer distribution must be rejected
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Coordinates, NodeRouterRoundTrip) {
  const TopoParams p = TopoParams::theta();
  const Coordinates c(p);
  for (NodeId n : {0, 1, 4, 100, 3455}) {
    const RouterId r = c.router_of_node(n);
    const int slot = c.slot_of_node(n);
    EXPECT_EQ(c.node_of(r, slot), n);
  }
}

TEST(Coordinates, RouterCoordRoundTrip) {
  const TopoParams p = TopoParams::theta();
  const Coordinates c(p);
  for (RouterId r = 0; r < p.total_routers(); r += 37) {
    const RouterCoord rc = c.coord(r);
    EXPECT_EQ(c.router_at(rc.group, rc.row, rc.col), r);
    EXPECT_GE(rc.row, 0);
    EXPECT_LT(rc.row, p.rows);
    EXPECT_GE(rc.col, 0);
    EXPECT_LT(rc.col, p.cols);
  }
}

TEST(Coordinates, ChassisAndCabinetGrouping) {
  const TopoParams p = TopoParams::theta();
  const Coordinates c(p);
  // Routers 0..15 are row 0 of group 0 = chassis 0; rows 0-2 = cabinet 0.
  EXPECT_EQ(c.chassis_of_router(0), 0);
  EXPECT_EQ(c.chassis_of_router(15), 0);
  EXPECT_EQ(c.chassis_of_router(16), 1);
  EXPECT_EQ(c.cabinet_of_router(0), 0);
  EXPECT_EQ(c.cabinet_of_router(16 * 3 - 1), 0);
  EXPECT_EQ(c.cabinet_of_router(16 * 3), 1);
  // First router of group 1.
  EXPECT_EQ(c.chassis_of_router(96), 6);
  EXPECT_EQ(c.cabinet_of_router(96), 2);
}

class TopologyTest : public ::testing::TestWithParam<TopoParams> {};

TEST_P(TopologyTest, PortLayoutIsContiguousAndComplete) {
  const DragonflyTopology topo(GetParam());
  const TopoParams& p = GetParam();
  EXPECT_EQ(topo.ports_per_router(),
            p.nodes_per_router + (p.cols - 1) + (p.rows - 1) + p.global_ports_per_router);
  int terminals = 0, rows = 0, cols = 0, globals = 0;
  for (int port = 0; port < topo.ports_per_router(); ++port) {
    switch (topo.port_kind(port)) {
      case PortKind::Terminal: ++terminals; break;
      case PortKind::LocalRow: ++rows; break;
      case PortKind::LocalCol: ++cols; break;
      case PortKind::Global: ++globals; break;
    }
  }
  EXPECT_EQ(terminals, p.nodes_per_router);
  EXPECT_EQ(rows, p.cols - 1);
  EXPECT_EQ(cols, p.rows - 1);
  EXPECT_EQ(globals, p.global_ports_per_router);
}

TEST_P(TopologyTest, LocalNeighborsAreSymmetric) {
  const DragonflyTopology topo(GetParam());
  const TopoParams& p = GetParam();
  for (RouterId r = 0; r < p.total_routers(); r += 7) {
    for (int port = topo.first_row_port(); port < topo.first_global_port(); ++port) {
      const RouterId peer = topo.neighbor(r, port);
      const int back = topo.neighbor_port(r, port);
      EXPECT_EQ(topo.neighbor(peer, back), r);
      EXPECT_EQ(topo.neighbor_port(peer, back), port);
      // Local neighbors share the group and exactly one of row/col.
      const Coordinates& c = topo.coords();
      EXPECT_EQ(c.group_of_router(peer), c.group_of_router(r));
      EXPECT_NE(peer, r);
    }
  }
}

TEST_P(TopologyTest, GlobalNeighborsAreSymmetricAndCrossGroup) {
  const DragonflyTopology topo(GetParam());
  const TopoParams& p = GetParam();
  for (RouterId r = 0; r < p.total_routers(); ++r) {
    for (int port = topo.first_global_port(); port < topo.ports_per_router(); ++port) {
      const RouterId peer = topo.neighbor(r, port);
      const int back = topo.neighbor_port(r, port);
      ASSERT_GE(peer, 0);
      EXPECT_NE(topo.coords().group_of_router(peer), topo.coords().group_of_router(r));
      EXPECT_EQ(topo.neighbor(peer, back), r);
      EXPECT_EQ(topo.neighbor_port(peer, back), port);
    }
  }
}

TEST_P(TopologyTest, GlobalLinksEvenlySpreadAcrossGroupPairs) {
  const DragonflyTopology topo(GetParam());
  const TopoParams& p = GetParam();
  const int expected = p.global_ports_per_group() / (p.groups - 1);
  for (GroupId a = 0; a < p.groups; ++a) {
    for (GroupId b = 0; b < p.groups; ++b) {
      if (a == b) continue;
      const auto links = topo.global_links(a, b);
      EXPECT_EQ(static_cast<int>(links.size()), expected);
      for (const GlobalLink& link : links) {
        EXPECT_EQ(topo.coords().group_of_router(link.src_router), a);
        EXPECT_EQ(topo.coords().group_of_router(link.dst_router), b);
        EXPECT_EQ(topo.neighbor(link.src_router, link.src_port), link.dst_router);
        EXPECT_EQ(topo.neighbor_port(link.src_router, link.src_port), link.dst_port);
      }
    }
  }
}

TEST_P(TopologyTest, EveryGlobalPortUsedExactlyOnce) {
  const DragonflyTopology topo(GetParam());
  const TopoParams& p = GetParam();
  std::set<std::pair<RouterId, int>> used;
  for (GroupId a = 0; a < p.groups; ++a) {
    for (GroupId b = 0; b < p.groups; ++b) {
      if (a == b) continue;
      for (const GlobalLink& link : topo.global_links(a, b)) {
        EXPECT_TRUE(used.insert({link.src_router, link.src_port}).second)
            << "port reused: router " << link.src_router << " port " << link.src_port;
      }
    }
  }
  EXPECT_EQ(used.size(),
            static_cast<std::size_t>(p.total_routers()) * p.global_ports_per_router);
}

TEST_P(TopologyTest, LocalPortToFindsRowAndColumnPeers) {
  const DragonflyTopology topo(GetParam());
  const TopoParams& p = GetParam();
  const Coordinates& c = topo.coords();
  for (RouterId r = 0; r < p.total_routers(); r += 11) {
    const RouterCoord rc = c.coord(r);
    for (int col = 0; col < p.cols; ++col) {
      if (col == rc.col) continue;
      const RouterId peer = c.router_at(rc.group, rc.row, col);
      const int port = topo.local_port_to(r, peer);
      ASSERT_GE(port, 0);
      EXPECT_EQ(topo.neighbor(r, port), peer);
    }
    for (int row = 0; row < p.rows; ++row) {
      if (row == rc.row) continue;
      const RouterId peer = c.router_at(rc.group, row, rc.col);
      const int port = topo.local_port_to(r, peer);
      ASSERT_GE(port, 0);
      EXPECT_EQ(topo.neighbor(r, port), peer);
    }
    // Diagonal peer in the same group: not one local hop.
    const RouterId diag = c.router_at(rc.group, (rc.row + 1) % p.rows, (rc.col + 1) % p.cols);
    if (diag != r && c.row_of_router(diag) != rc.row && c.col_of_router(diag) != rc.col) {
      EXPECT_EQ(topo.local_port_to(r, diag), -1);
    }
  }
}

TEST_P(TopologyTest, ChannelIdRoundTrip) {
  const DragonflyTopology topo(GetParam());
  const TopoParams& p = GetParam();
  for (RouterId r = 0; r < p.total_routers(); r += 13) {
    for (int port = 0; port < topo.ports_per_router(); ++port) {
      const int ch = topo.channel_id(r, port);
      EXPECT_LT(ch, topo.total_channels());
      EXPECT_EQ(topo.channel_router(ch), r);
      EXPECT_EQ(topo.channel_port(ch), port);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, TopologyTest,
                         ::testing::Values(TopoParams::tiny(), TopoParams::theta()),
                         [](const auto& pinfo) {
                           return pinfo.param.groups == 3 ? std::string("tiny")
                                                          : std::string("theta");
                         });

// --- 32-bit channel-id overflow guard -----------------------------------

TEST(TopoParamsValidate, RejectsChannelSpaceOverflowing32BitIds) {
  // channel id = router * ports_per_router + port must fit an int32; the
  // guard computes in 64-bit so the probe values themselves cannot overflow.
  TopoParams p;
  p.groups = 2;
  p.rows = 10'000;
  p.cols = 10'000;
  p.nodes_per_router = 1;
  p.global_ports_per_router = 1;
  p.chassis_per_cabinet = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(TopoParamsValidate, AcceptsChannelSpaceJustUnderTheBound) {
  TopoParams p;
  p.groups = 2;
  p.rows = 1;
  p.cols = 16'384;  // 32768 routers x 16385 ports ~= 5.4e8 < 2^31 - 1
  p.nodes_per_router = 1;
  p.global_ports_per_router = 1;
  p.chassis_per_cabinet = 1;
  EXPECT_NO_THROW(p.validate());
}

// --- 16-bit hop port guard ------------------------------------------------

TEST(TopoParamsValidate, RejectsPortCountBeyondHopPortWidth) {
  // Hop::port is int16_t: 40002 ports per router used to validate and then
  // wrap, so MinimalRouting::compute(0, 3, ...) returned first-hop port -30773.
  TopoParams p;
  p.groups = 2;
  p.rows = 1;
  p.cols = 2;
  p.nodes_per_router = 1;
  p.global_ports_per_router = 40'000;
  p.chassis_per_cabinet = 1;
  try {
    p.validate();
    FAIL() << "40002 ports per router must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "TopoParams: 40002 ports per router exceed the 16-bit hop port limit of 32767");
  }
  p.global_ports_per_router = 32'767 - 2;  // 1 terminal + 1 row port: exactly INT16_MAX
  EXPECT_NO_THROW(p.validate());
}

// ---------------------------------------------------------------------------
// Static degradation: global links disabled before routing tables are built.
// ---------------------------------------------------------------------------

TEST(DegradedFabric, DisableRemovesLinkFromBothDirections) {
  DragonflyTopology topo(TopoParams::tiny());
  const auto before_fwd = topo.global_links(0, 1).size();
  const auto before_bwd = topo.global_links(1, 0).size();
  const GlobalLink victim = topo.global_links(0, 1)[2];
  topo.disable_global_link(0, 1, 2);
  EXPECT_EQ(topo.global_links(0, 1).size(), before_fwd - 1);
  EXPECT_EQ(topo.global_links(1, 0).size(), before_bwd - 1);
  EXPECT_EQ(topo.disabled_global_links(), 1);
  EXPECT_FALSE(topo.port_enabled(victim.src_router, victim.src_port));
  EXPECT_FALSE(topo.port_enabled(victim.dst_router, victim.dst_port));
  // Unrelated pair untouched.
  EXPECT_EQ(topo.global_links(0, 2).size(), before_fwd);
  // Remaining links of the pair are still enabled.
  for (const GlobalLink& link : topo.global_links(0, 1))
    EXPECT_TRUE(topo.port_enabled(link.src_router, link.src_port));
}

TEST(DegradedFabric, CannotDisconnectAGroupPair) {
  DragonflyTopology topo(TopoParams::tiny());
  while (topo.global_links(0, 1).size() > 1) topo.disable_global_link(0, 1, 0);
  EXPECT_THROW(topo.disable_global_link(0, 1, 0), std::invalid_argument);
  EXPECT_EQ(topo.global_links(0, 1).size(), 1u);
}

TEST(DegradedFabric, DisableRejectsBadArguments) {
  DragonflyTopology topo(TopoParams::tiny());
  EXPECT_THROW(topo.disable_global_link(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(topo.disable_global_link(0, 1, 1000), std::invalid_argument);
  EXPECT_THROW(topo.disable_global_link(0, 1, -1), std::invalid_argument);
}

// Regression: only a == b and the index were checked, so a group past the
// end indexed another pair's link list (silently disabling a link of pair
// (1, 0) for (0, 3) on the 3-group tiny fabric) and then ran off the end of
// the per-pair table.
TEST(DegradedFabric, DisableRejectsOutOfRangeGroups) {
  DragonflyTopology topo(TopoParams::tiny());
  ASSERT_EQ(topo.params().groups, 3);
  for (const auto& [a, b] : {std::pair{0, 3}, std::pair{-1, 1}, std::pair{3, 0}}) {
    EXPECT_THROW(topo.disable_global_link(a, b, 0), std::invalid_argument) << a << "," << b;
  }
  EXPECT_EQ(topo.disabled_global_links(), 0);
  const std::size_t links_per_pair = topo.global_links(0, 1).size();
  for (GroupId a = 0; a < 3; ++a) {
    for (GroupId b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_EQ(topo.global_links(a, b).size(), links_per_pair) << a << "," << b;
    }
  }
}

TEST(DegradedFabric, RoutesAvoidDisabledLinks) {
  DragonflyTopology topo(TopoParams::tiny());
  Rng fault_rng(3);
  const int disabled = disable_random_global_links(topo, 0.5, fault_rng);
  EXPECT_GT(disabled, 0);

  MinimalRouting routing(topo);  // built after fault injection
  struct Idle : CongestionView {
    Bytes queued_bytes(RouterId, int) const override { return 0; }
  } idle;
  Rng rng(4);
  const int nodes = topo.params().total_nodes();
  for (int i = 0; i < 1000; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing.compute(src, dst, idle, rng);
    for (int h = 0; h < route.size(); ++h)
      EXPECT_TRUE(topo.port_enabled(route[h].router, route[h].port))
          << "route uses a failed link";
  }
}

TEST(DegradedFabric, StillDeliversEverything) {
  DragonflyTopology topo(TopoParams::tiny());
  Rng fault_rng(5);
  disable_random_global_links(topo, 0.6, fault_rng);

  Engine engine;
  AdaptiveRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  const Trace trace = make_ring_trace(32, 128 * units::kKiB, 2);
  Rng rng(6);
  const Placement placement =
      make_placement(PlacementKind::RandomNode, topo.params(), 32, rng);
  ReplayEngine replay(engine, network, trace, placement);
  replay.start();
  engine.set_event_limit(200'000'000);
  engine.run();
  EXPECT_FALSE(engine.hit_event_limit());
  EXPECT_TRUE(replay.finished());
}

// Helper kept outside the lambda so both runs use the identical trace.
Trace make_permutation_trace_helper() {
  Rng rng(9);
  return make_permutation_trace(40, 512 * units::kKiB, rng);
}

TEST(DegradedFabric, FewerLinksMeansMoreCongestionNotMoreHops) {
  // Disabling half of the global links leaves minimal hop counts intact
  // (some link always remains per pair) but concentrates traffic: the same
  // workload must take at least as long on the degraded fabric.
  auto run_ring = [](double fail_fraction) {
    DragonflyTopology topo(TopoParams::tiny());
    if (fail_fraction > 0) {
      Rng fault_rng(7);
      disable_random_global_links(topo, fail_fraction, fault_rng);
    }
    Engine engine;
    MinimalRouting routing(topo);
    Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
    const Trace trace = make_permutation_trace_helper();
    Rng rng(8);
    const Placement placement =
        make_placement(PlacementKind::RandomNode, topo.params(), trace.ranks(), rng);
    ReplayEngine replay(engine, network, trace, placement);
    replay.start();
    engine.run();
    EXPECT_TRUE(replay.finished());
    return engine.now();
  };
  EXPECT_LE(run_ring(0.0), run_ring(0.6));
}

TEST(DegradedFabric, FractionValidation) {
  DragonflyTopology topo(TopoParams::tiny());
  Rng rng(10);
  EXPECT_THROW(disable_random_global_links(topo, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(disable_random_global_links(topo, -0.1, rng), std::invalid_argument);
  EXPECT_EQ(disable_random_global_links(topo, 0.0, rng), 0);
}

}  // namespace
}  // namespace dfly
