// Unit and property tests for minimal / Valiant / adaptive routing.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <set>

#include "fnv1a.hpp"
#include "routing/adaptive.hpp"
#include "routing/adaptive_global.hpp"
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

// --- route digest: every seeded route, byte for byte ----------------------

/// Deterministic, never-idle congestion: a hash of (router, port) spread over
/// 1..48 x 256 B, with one channel in eight hot (64 KiB), so adaptive winners
/// differ between candidates and sources.
class HashedCongestion : public CongestionView {
 public:
  Bytes queued_bytes(RouterId router, int port) const override {
    std::uint64_t h = static_cast<std::uint64_t>(router) * 0x9e3779b97f4a7c15ULL ^
                      static_cast<std::uint64_t>(port) * 0xc2b2ae3d27d4eb4fULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    if (h % 8 == 0) return 64 * units::kKiB;
    return static_cast<Bytes>(1 + (h >> 3) % 48) * 256;
  }
};

/// FNV-1a over every hop (router, port, vc) of every route, the final RNG
/// state and the decision telemetry, for one algorithm over `pairs`.
std::uint64_t route_digest(const RoutingAlgorithm& algo,
                           const std::vector<std::pair<NodeId, NodeId>>& pairs,
                           std::uint64_t seed) {
  HashedCongestion congestion;
  Rng rng(seed);
  Fnv1a fnv;
  for (const auto& [src, dst] : pairs) {
    const Route route = algo.compute(src, dst, congestion, rng);
    fnv.add(static_cast<std::uint64_t>(route.size()));
    for (int i = 0; i < route.size(); ++i) {
      fnv.add(static_cast<std::uint64_t>(route[i].router));
      fnv.add(static_cast<std::uint64_t>(route[i].port));
      fnv.add(static_cast<std::uint64_t>(route[i].vc));
    }
  }
  for (const std::uint64_t word : rng.state()) fnv.add(word);
  return fnv.h;
}

std::uint64_t telemetry_digest(const RoutingTelemetry& telemetry) {
  Fnv1a fnv;
  for (const RouteDecisionStats& d : telemetry.per_source()) {
    fnv.add(d.minimal);
    fnv.add(d.nonminimal);
    fnv.add(std::bit_cast<std::uint64_t>(d.winning_score_sum));
    fnv.add(std::bit_cast<std::uint64_t>(d.minimal_score_sum));
    fnv.add(std::bit_cast<std::uint64_t>(d.nonminimal_score_sum));
  }
  return fnv.h;
}

/// Every ordered router pair (tiny) or a fixed sample of node pairs (Theta).
std::vector<std::pair<NodeId, NodeId>> digest_pairs(const TopoParams& p, int sample) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  const Coordinates c(p);
  if (sample == 0) {
    for (RouterId a = 0; a < p.total_routers(); ++a)
      for (RouterId b = 0; b < p.total_routers(); ++b)
        pairs.emplace_back(c.node_of(a, 0), c.node_of(b, a == b ? 1 : (a + b) % p.nodes_per_router));
    return pairs;
  }
  Rng pick(2024);
  const auto nodes = static_cast<std::uint64_t>(p.total_nodes());
  while (static_cast<int>(pairs.size()) < sample) {
    const auto src = static_cast<NodeId>(pick.uniform(nodes));
    const auto dst = static_cast<NodeId>(pick.uniform(nodes));
    if (src != dst) pairs.emplace_back(src, dst);
  }
  return pairs;
}

// Pins the exact routes, RNG consumption and adaptive telemetry of every
// algorithm, on a healthy fabric and on one statically degraded before the
// routing tables are built (the bench_extensions fault panel's setup).
// The healthy constants were generated before the flat path-table rewrite,
// the degraded ones before runtime link faults were removed; a change that
// alters them changes seeded simulation results and must re-baseline the
// fig3 goldens along with them (tests/golden/README.md).
TEST(RoutingDigest, SeededRoutesMatchParent) {
  struct Expected {
    const char* topo;
    const char* state;
    RoutingKind kind;
    std::uint64_t routes;
    std::uint64_t telemetry;
  };
  const Expected expected[] = {
      {"tiny", "healthy", RoutingKind::Minimal, 0xf86cbe2d96b1c9ceULL, 0xcbf29ce484222325ULL},
      {"tiny", "healthy", RoutingKind::Adaptive, 0x7f8fb16e0328ed1bULL, 0x4e33dbcd72b6492dULL},
      {"tiny", "healthy", RoutingKind::Valiant, 0x89aff5f92b804fdcULL, 0xcbf29ce484222325ULL},
      {"tiny", "healthy", RoutingKind::AdaptiveGlobal, 0x83f41253309f97cdULL, 0x1cfce7adaf7bd226ULL},
      {"tiny", "degraded", RoutingKind::Minimal, 0xf21bf3b7dd127940ULL, 0xcbf29ce484222325ULL},
      {"tiny", "degraded", RoutingKind::Adaptive, 0x18496d0743d5d8e9ULL, 0x0b160e5dbb80dd20ULL},
      {"tiny", "degraded", RoutingKind::Valiant, 0xc2dc8d93356c4f33ULL, 0xcbf29ce484222325ULL},
      {"tiny", "degraded", RoutingKind::AdaptiveGlobal, 0xcaf3b1ea4d5e273bULL, 0xe89e04d391cb92deULL},
      {"theta", "healthy", RoutingKind::Minimal, 0xbc164ac7ad37e9a1ULL, 0xcbf29ce484222325ULL},
      {"theta", "healthy", RoutingKind::Adaptive, 0x88847e20e6764beeULL, 0xeae00b0ec234a56cULL},
      {"theta", "healthy", RoutingKind::Valiant, 0x6e12e600b18423c4ULL, 0xcbf29ce484222325ULL},
      {"theta", "healthy", RoutingKind::AdaptiveGlobal, 0x2a4fc0323c3670b8ULL, 0x6cddbacb3d28c676ULL},
      {"theta", "degraded", RoutingKind::Minimal, 0x787860cb340e1a5dULL, 0xcbf29ce484222325ULL},
      {"theta", "degraded", RoutingKind::Adaptive, 0x8ea5dcd43434959aULL, 0x3bb7ef2f8a4b0f2aULL},
      {"theta", "degraded", RoutingKind::Valiant, 0xeef10a3095a082a9ULL, 0xcbf29ce484222325ULL},
      {"theta", "degraded", RoutingKind::AdaptiveGlobal, 0xbd63c14826903e22ULL, 0x9b5700172c02b8caULL},
  };
  std::vector<Expected> actual;
  for (const bool theta : {false, true}) {
    const TopoParams p = theta ? TopoParams::theta() : TopoParams::tiny();
    const auto pairs = digest_pairs(p, theta ? 200000 : 0);
    for (const bool degraded : {false, true}) {
      DragonflyTopology topo(p);
      if (degraded) {
        topo.disable_global_link(0, 1, 0);
        topo.disable_global_link(1, 2, 1);
      }
      const RoutingKind kinds[] = {RoutingKind::Minimal, RoutingKind::Adaptive,
                                   RoutingKind::Valiant, RoutingKind::AdaptiveGlobal};
      for (std::size_t k = 0; k < std::size(kinds); ++k) {
        const auto algo = make_routing(kinds[k], topo);
        RoutingTelemetry telemetry;
        algo->set_telemetry(&telemetry);
        const std::uint64_t routes = route_digest(*algo, pairs, 77 + k);
        algo->set_telemetry(nullptr);
        if (kinds[k] == RoutingKind::Adaptive || kinds[k] == RoutingKind::AdaptiveGlobal) {
          EXPECT_GT(telemetry.minimal_total(), 0u);
          EXPECT_GT(telemetry.nonminimal_total(), 0u) << "congestion must make detours win";
        }
        actual.push_back({theta ? "theta" : "tiny", degraded ? "degraded" : "healthy", kinds[k],
                          routes, telemetry_digest(telemetry)});
      }
    }
  }
  ASSERT_EQ(actual.size(), std::size(expected));
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const Expected& a = actual[i];
    const Expected& e = expected[i];
    ASSERT_STREQ(a.topo, e.topo);
    ASSERT_STREQ(a.state, e.state);
    ASSERT_EQ(a.kind, e.kind);
    EXPECT_EQ(a.routes, e.routes) << a.topo << " " << a.state << " " << to_string(a.kind)
                                  << ": routes 0x" << std::hex << a.routes;
    EXPECT_EQ(a.telemetry, e.telemetry) << a.topo << " " << a.state << " " << to_string(a.kind)
                                        << ": telemetry 0x" << std::hex << a.telemetry;
  }
}

}  // namespace
}  // namespace dfly
