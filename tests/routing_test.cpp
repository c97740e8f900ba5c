// Unit and property tests for minimal / Valiant / adaptive routing.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "routing/adaptive.hpp"
#include "routing/minimal.hpp"
#include "routing/valiant.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {
namespace {

/// Congestion oracle for tests: everything idle.
class IdleCongestion : public CongestionView {
 public:
  Bytes queued_bytes(RouterId, int) const override { return 0; }
};

/// Congestion oracle reporting a fixed queue on one channel.
class HotChannel : public CongestionView {
 public:
  HotChannel(RouterId router, int port, Bytes queued)
      : router_(router), port_(port), queued_(queued) {}
  Bytes queued_bytes(RouterId router, int port) const override {
    return (router == router_ && port == port_) ? queued_ : 0;
  }

 private:
  RouterId router_;
  int port_;
  Bytes queued_;
};

/// Validates that a route is physically well-formed: starts at src's router,
/// every hop's port leads to the next hop's router, the last hop ejects at
/// dst's terminal port, and VCs strictly increase.
void expect_valid_route(const DragonflyTopology& topo, const Route& route, NodeId src,
                        NodeId dst) {
  const Coordinates& c = topo.coords();
  ASSERT_GT(route.size(), 0);
  ASSERT_LE(route.size(), kMaxRouteHops);
  EXPECT_EQ(route.first().router, c.router_of_node(src));
  for (int i = 0; i < route.size(); ++i) {
    const Hop& hop = route[i];
    EXPECT_EQ(hop.vc, i) << "VCs must escalate with hop index";
    if (i + 1 < route.size()) {
      EXPECT_NE(topo.port_kind(hop.port), PortKind::Terminal);
      EXPECT_EQ(topo.neighbor(hop.router, hop.port), route[i + 1].router)
          << "hop " << i << " does not lead to the next router";
    } else {
      EXPECT_EQ(topo.port_kind(hop.port), PortKind::Terminal);
      EXPECT_EQ(hop.router, c.router_of_node(dst));
      EXPECT_EQ(hop.port, c.slot_of_node(dst));
    }
  }
}

class RoutingProperty : public ::testing::TestWithParam<TopoParams> {
 protected:
  void SetUp() override { topo_.emplace(GetParam()); }
  std::optional<DragonflyTopology> topo_;
};

TEST_P(RoutingProperty, MinimalRoutesAreValidForRandomPairs) {
  MinimalRouting routing(*topo_);
  IdleCongestion idle;
  Rng rng(1);
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing.compute(src, dst, idle, rng);
    expect_valid_route(*topo_, route, src, dst);
    // Minimal inter-group path: <= 2 local + global + <= 2 local + eject.
    EXPECT_LE(route.size(), 6);
  }
}

TEST_P(RoutingProperty, MinimalRouteLengthMatchesMinHops) {
  MinimalRouting routing(*topo_);
  IdleCongestion idle;
  Rng rng(2);
  const Coordinates& c = topo_->coords();
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing.compute(src, dst, idle, rng);
    const int expected = routing.table().min_hops(c.router_of_node(src), c.router_of_node(dst));
    EXPECT_EQ(route.size(), expected + 1) << "route must be minimal (+1 ejection hop)";
  }
}

TEST_P(RoutingProperty, ValiantRoutesAreValidForRandomPairs) {
  ValiantRouting routing(*topo_);
  IdleCongestion idle;
  Rng rng(3);
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing.compute(src, dst, idle, rng);
    expect_valid_route(*topo_, route, src, dst);
  }
}

TEST_P(RoutingProperty, AdaptiveRoutesAreValidForRandomPairs) {
  AdaptiveRouting routing(*topo_);
  IdleCongestion idle;
  Rng rng(4);
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = routing.compute(src, dst, idle, rng);
    expect_valid_route(*topo_, route, src, dst);
  }
}

TEST_P(RoutingProperty, AdaptivePicksMinimalOnIdleNetwork) {
  AdaptiveRouting adaptive(*topo_);
  MinimalRouting minimal(*topo_);
  IdleCongestion idle;
  Rng rng(5);
  const Coordinates& c = topo_->coords();
  const int nodes = GetParam().total_nodes();
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    const Route route = adaptive.compute(src, dst, idle, rng);
    const int min_len =
        minimal.table().min_hops(c.router_of_node(src), c.router_of_node(dst)) + 1;
    EXPECT_EQ(route.size(), min_len) << "idle network must yield a minimal route";
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, RoutingProperty,
                         ::testing::Values(TopoParams::tiny(), TopoParams::theta()),
                         [](const auto& pinfo) {
                           return pinfo.param.groups == 3 ? std::string("tiny")
                                                          : std::string("theta");
                         });

TEST(MinimalRouting, SameRouterPairIsEjectOnly) {
  const DragonflyTopology topo(TopoParams::tiny());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(6);
  // Nodes 0 and 1 share router 0 in the tiny config.
  const Route route = routing.compute(0, 1, idle, rng);
  ASSERT_EQ(route.size(), 1);
  EXPECT_EQ(route[0].router, 0);
  EXPECT_EQ(topo.port_kind(route[0].port), PortKind::Terminal);
}

TEST(MinimalRouting, SameRowIsOneLocalHop) {
  const DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(7);
  // Router 0 and router 1 share row 0 of group 0; first node on each.
  const Route route = routing.compute(0, 1 * 4, idle, rng);
  ASSERT_EQ(route.size(), 2);
  EXPECT_EQ(topo.port_kind(route[0].port), PortKind::LocalRow);
  EXPECT_EQ(route[1].router, 1);
}

TEST(MinimalRouting, DiagonalIntraGroupIsTwoLocalHops) {
  const DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(8);
  const Coordinates& c = topo.coords();
  const RouterId r_dst = c.router_at(0, 3, 7);  // different row and column from router 0
  const Route route = routing.compute(0, c.node_of(r_dst, 0), idle, rng);
  ASSERT_EQ(route.size(), 3);
  // Intermediate router must share row or col with both endpoints.
  const RouterId mid = route[1].router;
  const RouterCoord mc = c.coord(mid);
  EXPECT_TRUE((mc.row == 0 && mc.col == 7) || (mc.row == 3 && mc.col == 0));
}

TEST(MinimalRouting, IntersectionTieBreaksUseBothCandidates) {
  const DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(9);
  const Coordinates& c = topo.coords();
  const RouterId r_dst = c.router_at(0, 3, 7);
  std::set<RouterId> mids;
  for (int i = 0; i < 50; ++i) {
    const Route route = routing.compute(0, c.node_of(r_dst, 0), idle, rng);
    mids.insert(route[1].router);
  }
  EXPECT_EQ(mids.size(), 2u) << "both row/col intersections should be sampled";
}

TEST(MinimalRouting, InterGroupRouteCrossesExactlyOneGlobalLink) {
  const DragonflyTopology topo(TopoParams::theta());
  MinimalRouting routing(topo);
  IdleCongestion idle;
  Rng rng(10);
  const Coordinates& c = topo.coords();
  Rng pick(99);
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(pick.uniform(topo.params().total_nodes()));
    auto dst = static_cast<NodeId>(pick.uniform(topo.params().total_nodes()));
    if (c.group_of_node(src) == c.group_of_node(dst)) continue;
    const Route route = routing.compute(src, dst, idle, rng);
    int globals = 0;
    for (int h = 0; h < route.size(); ++h)
      if (topo.port_kind(route[h].port) == PortKind::Global) ++globals;
    EXPECT_EQ(globals, 1);
  }
}

TEST(ValiantRouting, IntermediateAvoidsEndpointRouters) {
  const DragonflyTopology topo(TopoParams::tiny());
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const RouterId via = pick_valiant_intermediate(topo, 3, 17, rng);
    EXPECT_NE(via, 3);
    EXPECT_NE(via, 17);
    EXPECT_LT(via, topo.params().total_routers());
  }
}

TEST(AdaptiveRouting, AvoidsCongestedMinimalFirstHop) {
  const DragonflyTopology topo(TopoParams::theta());
  AdaptiveRouting adaptive(topo);
  MinimalRouting minimal(topo);
  IdleCongestion idle;
  Rng rng(12);
  // Find the minimal first-hop channel for a same-row pair, then congest it
  // heavily; adaptive must route around it (different first hop or longer
  // path).
  const NodeId src = 0, dst = 3 * 4;  // router 0 -> router 3, same row
  const Route min_route = minimal.compute(src, dst, idle, rng);
  const HotChannel hot(min_route.first().router, min_route.first().port,
                       64 * units::kMiB);
  int avoided = 0;
  for (int i = 0; i < 50; ++i) {
    const Route route = adaptive.compute(src, dst, hot, rng);
    if (!(route.first().router == min_route.first().router &&
          route.first().port == min_route.first().port))
      ++avoided;
  }
  EXPECT_GT(avoided, 40) << "adaptive should usually dodge a hot first hop";
}

TEST(RoutingFactory, NamesAndKinds) {
  const DragonflyTopology topo(TopoParams::tiny());
  EXPECT_EQ(make_routing(RoutingKind::Minimal, topo)->name(), "minimal");
  EXPECT_EQ(make_routing(RoutingKind::Adaptive, topo)->name(), "adaptive");
  EXPECT_EQ(make_routing(RoutingKind::Valiant, topo)->name(), "valiant");
  EXPECT_STREQ(to_string(RoutingKind::Minimal), "min");
  EXPECT_STREQ(to_string(RoutingKind::Adaptive), "adp");
}

// --- bounded Valiant intermediate picker --------------------------------

TEST(ValiantIntermediate, DegenerateTopologiesTerminateWithMinimalFallback) {
  Rng rng(7);
  // Formerly an infinite rejection loop: with <= 2 routers every draw hits an
  // endpoint. Now it degenerates to the minimal route (via == r_dst).
  EXPECT_EQ(pick_valiant_intermediate(1, 0, 0, rng), 0);
  EXPECT_EQ(pick_valiant_intermediate(2, 0, 1, rng), 1);
  EXPECT_EQ(pick_valiant_intermediate(2, 1, 0, rng), 0);
}

TEST(ValiantIntermediate, SmallestRealTopologyAlwaysPicksTheThirdParty) {
  // With 3 routers exactly one valid intermediate exists; the bounded picker
  // must find it (by draw or by the deterministic fallback scan), never spin.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed);
    const RouterId via = pick_valiant_intermediate(3, 0, 1, rng);
    EXPECT_EQ(via, 2) << "seed " << seed;
  }
}

TEST(ValiantIntermediate, PicksExcludeEndpointsAndCoverTheTable) {
  Rng rng(13);
  std::set<RouterId> seen;
  for (int i = 0; i < 512; ++i) {
    const RouterId via = pick_valiant_intermediate(24, 3, 17, rng);
    ASSERT_NE(via, 3);
    ASSERT_NE(via, 17);
    ASSERT_GE(via, 0);
    ASSERT_LT(via, 24);
    seen.insert(via);
  }
  EXPECT_GT(seen.size(), 16u);  // still samples broadly, not a point mass
}

}  // namespace
}  // namespace dfly
