// Precomputed minimal-path helper for the Cascade dragonfly.
//
// Intra-group minimal paths are pure coordinate arithmetic (direct, or via
// one of the two row/column intersection routers), done on per-router
// row/column arrays so no hop needs a division. Inter-group paths must pick
// one of the many global links between the two groups. For every (router,
// peer group) the table keeps a span of one flat array of 4-byte near-link
// entries: first the links whose source router is the router itself (bucket
// 0), then those whose source shares its row or column (bucket 1). An entry
// holds the link's index in the topology's pair list and its landing router's
// row and column, which is all the cost needs; only the winning link is read
// from the pair list. Links needing two source-side hops are resolved by
// scanning the pair list, which only happens when buckets 0 and 1 are both
// worse.
//
// The candidate stream order (bucket 0, bucket 1, then the pair list, each in
// the topology's link order) and the reservoir draws over it are what keeps
// seeded routes bit-for-bit stable; RoutingDigest.SeededRoutesMatchParent
// pins them.
//
// The table is built once from the topology's enabled global links; the
// topology must not change afterwards. The constructor throws
// std::length_error when the narrow fields cannot hold the topology: more
// than 65,535 enabled links between two groups, or more than 255 rows or
// columns in a group.
#pragma once

#include <cstdint>
#include <span>
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
  /// One global link toward the peer group: its index in
  /// topology().global_links(group, peer), with its landing router's
  /// coordinates cached for the destination-side hop count.
  struct NearLink {
    std::uint16_t link;
    std::uint8_t dst_row;
    std::uint8_t dst_col;
  };
  static_assert(sizeof(NearLink) == 4, "a near-link entry is 4 bytes");
  /// links_[begin, bucket1_begin) is bucket 0, [bucket1_begin, end) bucket 1.
  struct Span {
    std::int32_t begin = 0;
    std::int32_t bucket1_begin = 0;
    std::int32_t end = 0;
  };

  std::size_t span_index(RouterId router, GroupId peer) const {
    return static_cast<std::size_t>(router) * topo_.params().groups + peer;
  }
  NearLink near_link(std::span<const GlobalLink> pair, std::size_t index) const;
  void append_local(Route& route, RouterId from, RouterId to, Rng& rng) const;
  /// Local port on `from` toward `to` (same group, distinct), or -1 when they
  /// share neither row nor column.
  int port_to(RouterId from, RouterId to) const;
  int local_hops(RouterId a, RouterId b) const;
  /// Local hops between two routers of one group, from their coordinates.
  static int local_hops(int a_row, int a_col, int b_row, int b_col) {
    if (a_row == b_row) return a_col == b_col ? 0 : 1;
    return a_col == b_col ? 1 : 2;
  }

  const DragonflyTopology& topo_;
  std::vector<std::int16_t> row_;  ///< per router
  std::vector<std::int16_t> col_;  ///< per router
  std::vector<NearLink> links_;    ///< every span's entries, back to back
  std::vector<Span> spans_;        ///< indexed router * groups + peer group
};

}  // namespace dfly
