// Precomputed minimal-path helper for the Cascade dragonfly.
//
// Intra-group minimal paths are pure coordinate arithmetic (direct, or via
// one of the two row/column intersection routers), done on per-router
// row/column arrays so no hop needs a division. Inter-group paths must pick
// one of the many global links between the two groups. For every ordered
// group pair the table keeps bit masks over the topology's pair list
// global_links(g, peer), bit i standing for link i: all links, the links
// whose source router is in row r, in column c, and whose landing router is
// in row r, in column c. With `from` and `to` known, three mask operations
// give each bucket of source-side hops (0: same router, 1: same row or
// column, 2: neither) and each link's destination-side hops, so a selection
// reads five masks of its group pair and only the winning link of the pair
// list. On Theta the masks of all 81 pairs take about 58 KB.
//
// The candidate stream order (bucket 0, bucket 1 when the best cost so far is
// above 2, bucket 2 when it is above 3, each in the topology's link order)
// and the reservoir draws over it are what keeps seeded routes bit-for-bit
// stable; RoutingDigest.SeededRoutesMatchParent pins them. A selection visits
// only the links that can tie or beat the running best, which skips no draw.
//
// The table is built once from the topology's enabled global links; the
// topology must not change afterwards.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/route.hpp"
#include "topo/dragonfly.hpp"
#include "util/rng.hpp"

namespace dfly {

class MinimalPathTable {
 public:
  explicit MinimalPathTable(const DragonflyTopology& topo);

  /// Appends the router-level minimal path from `from` to `to` (inclusive of
  /// departure hops, exclusive of the ejection hop). Ties are broken uniformly
  /// at random. No-op when from == to.
  void append_minimal(Route& route, RouterId from, RouterId to, Rng& rng) const;

  /// Router-router hop count of a minimal path (0 when from == to).
  int min_hops(RouterId from, RouterId to) const;

  const DragonflyTopology& topology() const { return topo_; }

 private:
  /// Index in masks_ of the first word of the pair (g, peer)'s mask number
  /// `index`. A pair's masks, each words_ long: all links, source row
  /// 0..rows-1, source column 0..cols-1, landing row 0..rows-1, landing
  /// column 0..cols-1.
  std::size_t mask_at(GroupId g, GroupId peer, int index) const {
    return (static_cast<std::size_t>(g) * topo_.params().groups + peer) * pair_words_ +
           static_cast<std::size_t>(index) * words_;
  }
  void append_local(Route& route, RouterId from, RouterId to, Rng& rng) const;
  /// Local port on `from` toward `to` (same group, distinct), or -1 when they
  /// share neither row nor column.
  int port_to(RouterId from, RouterId to) const;
  /// Local hops between two routers of one group.
  int local_hops(RouterId a, RouterId b) const;

  const DragonflyTopology& topo_;
  std::vector<std::int16_t> row_;  ///< per router
  std::vector<std::int16_t> col_;  ///< per router
  std::size_t words_ = 0;          ///< 64-bit words per mask
  std::size_t pair_words_ = 0;     ///< words of one pair's masks
  std::vector<std::uint64_t> masks_;  ///< indexed by ordered group pair
};

}  // namespace dfly
