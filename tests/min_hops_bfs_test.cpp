// Cross-validation of MinimalPathTable against breadth-first search on the
// actual wiring: for every router pair of the tiny topology (and a sample of
// Theta), the table's min_hops must equal the true shortest path restricted
// to dragonfly-minimal semantics... and must never beat unrestricted BFS.
#include <gtest/gtest.h>

#include <queue>

#include "routing/router_table.hpp"

namespace dfly {
namespace {

/// Unrestricted shortest hop count over the router graph.
std::vector<int> bfs_distances(const DragonflyTopology& topo, RouterId start) {
  const int routers = topo.params().total_routers();
  std::vector<int> dist(routers, -1);
  std::queue<RouterId> queue;
  dist[start] = 0;
  queue.push(start);
  while (!queue.empty()) {
    const RouterId r = queue.front();
    queue.pop();
    for (int port = topo.first_row_port(); port < topo.ports_per_router(); ++port) {
      const RouterId peer = topo.neighbor(r, port);
      if (dist[peer] == -1) {
        dist[peer] = dist[r] + 1;
        queue.push(peer);
      }
    }
  }
  return dist;
}

TEST(MinHopsBfs, TinyTopologyExactAgainstBfs) {
  const DragonflyTopology topo(TopoParams::tiny());
  const MinimalPathTable table(topo);
  const int routers = topo.params().total_routers();
  for (RouterId a = 0; a < routers; ++a) {
    const std::vector<int> dist = bfs_distances(topo, a);
    for (RouterId b = 0; b < routers; ++b) {
      ASSERT_GE(dist[b], 0) << "topology is disconnected";
      const int table_hops = table.min_hops(a, b);
      // Dragonfly-minimal routes are restricted (exactly one global hop for
      // inter-group pairs), so they can exceed BFS but never beat it.
      EXPECT_GE(table_hops, dist[b]) << a << "->" << b;
      // Intra-group pairs are unrestricted: must match BFS exactly.
      if (topo.coords().group_of_router(a) == topo.coords().group_of_router(b)) {
        EXPECT_EQ(table_hops, dist[b]) << a << "->" << b;
      }
      // The restriction costs at most 2 extra local hops.
      EXPECT_LE(table_hops, dist[b] + 2) << a << "->" << b;
    }
  }
}

TEST(MinHopsBfs, ThetaSampledAgainstBfs) {
  const DragonflyTopology topo(TopoParams::theta());
  const MinimalPathTable table(topo);
  for (RouterId a : {0, 95, 96, 500, 863}) {
    const std::vector<int> dist = bfs_distances(topo, a);
    for (RouterId b = 0; b < topo.params().total_routers(); b += 17) {
      const int table_hops = table.min_hops(a, b);
      EXPECT_GE(table_hops, dist[b]) << a << "->" << b;
      EXPECT_LE(table_hops, dist[b] + 2) << a << "->" << b;
    }
  }
}

TEST(MinHopsBfs, MinHopsIsSymmetricOnTiny) {
  const DragonflyTopology topo(TopoParams::tiny());
  const MinimalPathTable table(topo);
  const int routers = topo.params().total_routers();
  for (RouterId a = 0; a < routers; ++a)
    for (RouterId b = a + 1; b < routers; ++b)
      EXPECT_EQ(table.min_hops(a, b), table.min_hops(b, a)) << a << "<->" << b;
}

TEST(MinHopsBfs, BoundsOnTheta) {
  // Theta minimal paths: 0 (same router), 1-2 (same group), 1-5 (cross
  // group: <=2 local + 1 global + <=2 local).
  const DragonflyTopology topo(TopoParams::theta());
  const MinimalPathTable table(topo);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<RouterId>(rng.uniform(864));
    const auto b = static_cast<RouterId>(rng.uniform(864));
    const int hops = table.min_hops(a, b);
    if (a == b) {
      EXPECT_EQ(hops, 0);
    } else if (topo.coords().group_of_router(a) == topo.coords().group_of_router(b)) {
      EXPECT_GE(hops, 1);
      EXPECT_LE(hops, 2);
    } else {
      EXPECT_GE(hops, 1);
      EXPECT_LE(hops, 5);
    }
  }
}

TEST(MinimalPathTable, RoutesGroupsOfMoreThan255Columns) {
  // Rows and columns are plain ints in the table; a 256-column group (one
  // row, one global port per router) builds and routes minimally.
  TopoParams p;
  p.groups = 2;
  p.rows = 1;
  p.nodes_per_router = 1;
  p.global_ports_per_router = 1;
  p.cols = 256;
  const DragonflyTopology topo(p);
  const MinimalPathTable table(topo);
  EXPECT_EQ(table.min_hops(0, 2 * 256 - 1), 2);  // 0 -> global -> 256 -> row -> 511
  Rng rng(5);
  for (RouterId a : {0, 1, 255, 256, 300, 511}) {
    const std::vector<int> dist = bfs_distances(topo, a);
    for (RouterId b = 0; b < topo.params().total_routers(); ++b) {
      const int table_hops = table.min_hops(a, b);
      EXPECT_GE(table_hops, dist[b]) << a << "->" << b;
      EXPECT_LE(table_hops, dist[b] + 2) << a << "->" << b;
      if (topo.coords().group_of_router(a) == topo.coords().group_of_router(b)) {
        EXPECT_EQ(table_hops, dist[b]) << a << "->" << b;
      }
      // The route the table builds has min_hops hops, each on a real link,
      // and ends at b.
      Route route;
      table.append_minimal(route, a, b, rng);
      ASSERT_EQ(route.size(), table_hops) << a << "->" << b;
      RouterId at = a;
      for (int h = 0; h < route.size(); ++h) {
        ASSERT_EQ(route[h].router, at) << a << "->" << b << " hop " << h;
        at = topo.neighbor(at, route[h].port);
      }
      EXPECT_EQ(at, b) << a << "->" << b;
    }
  }
}

}  // namespace
}  // namespace dfly
