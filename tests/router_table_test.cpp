// Differential test of MinimalPathTable's mask-driven link selection against
// the plain bucket-ordered reservoir scan it replaced: for the same seed both
// must pick the same global link and intersection routers, and leave the Rng
// at the same state, on every ordered router pair of each fabric below.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "routing/router_table.hpp"

namespace dfly {
namespace {

/// The plain bucket-ordered reservoir scan over the pair list.
class ReferenceScan {
 public:
  explicit ReferenceScan(const DragonflyTopology& topo) : topo_(topo) {
    for (RouterId r = 0; r < topo.params().total_routers(); ++r) {
      row_.push_back(topo.coords().row_of_router(r));
      col_.push_back(topo.coords().col_of_router(r));
    }
  }

  /// The candidate stream in its defining order: every link with 0
  /// source-side hops, then (when the best cost is above 2) every link with
  /// 1, then (when it is above 3) every link with 2, each in the pair list's
  /// order, with one reservoir draw per tie.
  void append_minimal(Route& route, RouterId from, RouterId to, Rng& rng) const {
    if (from == to) return;
    const Coordinates& c = topo_.coords();
    const GroupId gf = c.group_of_router(from);
    const GroupId gt = c.group_of_router(to);
    if (gf == gt) {
      append_local(route, from, to, rng);
      return;
    }
    const std::span<const GlobalLink> pair = topo_.global_links(gf, gt);
    int best_cost = 100;
    std::size_t best = 0;
    std::uint64_t ties = 0;
    for (int bucket = 0; bucket < 3; ++bucket) {
      if (bucket == 1 && best_cost <= 2) break;
      if (bucket == 2 && best_cost <= 3) break;
      for (std::size_t i = 0; i < pair.size(); ++i) {
        if (local_hops(from, pair[i].src_router) != bucket) continue;
        const int cost = bucket + 1 + local_hops(pair[i].dst_router, to);
        if (cost < best_cost) {
          best_cost = cost;
          best = i;
          ties = 1;
        } else if (cost == best_cost) {
          ++ties;
          if (rng.uniform(ties) == 0) best = i;
        }
      }
    }
    const GlobalLink& link = pair[best];
    append_local(route, from, link.src_router, rng);
    route.push(link.src_router, link.src_port);
    append_local(route, link.dst_router, to, rng);
  }

 private:
  int local_hops(RouterId a, RouterId b) const {
    const bool same_row = row_[a] == row_[b];
    const bool same_col = col_[a] == col_[b];
    return same_row && same_col ? 0 : same_row || same_col ? 1 : 2;
  }

  void append_local(Route& route, RouterId from, RouterId to, Rng& rng) const {
    if (from == to) return;
    const int direct = topo_.local_port_to(from, to);
    if (direct >= 0) {
      route.push(from, direct);
      return;
    }
    const Coordinates& c = topo_.coords();
    const GroupId g = c.group_of_router(from);
    const RouterId via_row = c.router_at(g, row_[from], col_[to]);
    const RouterId via_col = c.router_at(g, row_[to], col_[from]);
    const RouterId mid = rng.bernoulli(0.5) ? via_row : via_col;
    route.push(from, topo_.local_port_to(from, mid));
    route.push(mid, topo_.local_port_to(mid, to));
  }

  const DragonflyTopology& topo_;
  std::vector<int> row_;
  std::vector<int> col_;
};

/// Routes every ordered router pair with the table and with the reference,
/// each on its own Rng of the same seed.
void expect_matches_reference(const DragonflyTopology& topo, std::uint64_t seed) {
  SCOPED_TRACE(topo.params().describe() + ", " + std::to_string(topo.disabled_global_links()) +
               " links disabled, seed " + std::to_string(seed));
  const MinimalPathTable table(topo);
  const ReferenceScan reference(topo);
  Rng rng(seed);
  Rng reference_rng(seed);
  const int routers = topo.params().total_routers();
  for (RouterId from = 0; from < routers; ++from) {
    for (RouterId to = 0; to < routers; ++to) {
      Route got;
      Route want;
      table.append_minimal(got, from, to, rng);
      reference.append_minimal(want, from, to, reference_rng);
      ASSERT_EQ(got.size(), want.size()) << from << "->" << to;
      for (int h = 0; h < got.size(); ++h) {
        ASSERT_EQ(got[h].router, want[h].router) << from << "->" << to << " hop " << h;
        ASSERT_EQ(got[h].port, want[h].port) << from << "->" << to << " hop " << h;
      }
      ASSERT_EQ(rng.state(), reference_rng.state()) << from << "->" << to;
    }
  }
}

TEST(MinimalPathTable, MaskSelectionMatchesReferenceScan) {
  // Tiny: every router has a link to each peer group; several seeds, since
  // its pairs are few.
  const DragonflyTopology tiny(TopoParams::tiny());
  for (const std::uint64_t seed : {1, 2, 3, 4, 5})
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(tiny, seed));

  // Theta: 120 links per group pair, two mask words.
  const DragonflyTopology theta(TopoParams::theta());
  for (const std::uint64_t seed : {42, 7})
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(theta, seed));

  // Degraded Theta: many routers lose every link to some peer group, so the
  // bucket 1 and bucket 2 scans (and their gates) decide many routes.
  DragonflyTopology degraded(TopoParams::theta());
  Rng fault_rng(11);
  ASSERT_GT(disable_random_global_links(degraded, 0.75, fault_rng), 0);
  ASSERT_NO_FATAL_FAILURE(expect_matches_reference(degraded, 42));

  // 160 links per group pair: masks of three words, the last one partial,
  // whole and degraded (still above 128 links per pair).
  TopoParams wide;
  wide.groups = 3;
  wide.rows = 4;
  wide.cols = 40;
  wide.nodes_per_router = 1;
  wide.global_ports_per_router = 2;
  DragonflyTopology three_words(wide);
  ASSERT_EQ(three_words.global_links(0, 1).size(), 160u);
  ASSERT_NO_FATAL_FAILURE(expect_matches_reference(three_words, 42));
  Rng wide_fault_rng(12);
  disable_random_global_links(three_words, 0.15, wide_fault_rng);
  ASSERT_GT(three_words.global_links(0, 1).size(), 128u);
  ASSERT_NO_FATAL_FAILURE(expect_matches_reference(three_words, 43));
}

}  // namespace
}  // namespace dfly
