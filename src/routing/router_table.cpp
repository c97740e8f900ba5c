#include "routing/router_table.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace dfly {

MinimalPathTable::MinimalPathTable(const DragonflyTopology& topo) : topo_(topo) {
  const TopoParams& p = topo_.params();
  const Coordinates& c = topo_.coords();
  row_.resize(static_cast<std::size_t>(p.total_routers()));
  col_.resize(row_.size());
  for (RouterId r = 0; r < p.total_routers(); ++r) {
    row_[r] = static_cast<std::int16_t>(c.row_of_router(r));
    col_[r] = static_cast<std::int16_t>(c.col_of_router(r));
  }
  // Count first so the flat array is allocated exactly once, at its size.
  std::size_t near_links = 0;
  for (RouterId r = 0; r < p.total_routers(); ++r) {
    const GroupId g = c.group_of_router(r);
    for (GroupId peer = 0; peer < p.groups; ++peer) {
      if (peer == g) continue;
      for (const GlobalLink& link : topo_.global_links(g, peer))
        near_links += local_hops(r, link.src_router) < 2;
    }
  }
  if (near_links > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    throw std::length_error("MinimalPathTable: too many near links for 32-bit offsets");
  if (p.rows > std::numeric_limits<std::uint8_t>::max() ||
      p.cols > std::numeric_limits<std::uint8_t>::max())
    throw std::length_error("MinimalPathTable: more than 255 rows or columns for 8-bit coordinates");
  for (GroupId g = 0; g < p.groups; ++g) {
    for (GroupId peer = 0; peer < p.groups; ++peer) {
      if (peer != g &&
          topo_.global_links(g, peer).size() > std::numeric_limits<std::uint16_t>::max())
        throw std::length_error("MinimalPathTable: more than 65535 links between two groups "
                                "for 16-bit link indices");
    }
  }
  links_.reserve(near_links);
  spans_.resize(static_cast<std::size_t>(p.total_routers()) * p.groups);
  for (RouterId r = 0; r < p.total_routers(); ++r) {
    const GroupId g = c.group_of_router(r);
    for (GroupId peer = 0; peer < p.groups; ++peer) {
      Span& span = spans_[span_index(r, peer)];
      span.begin = span.bucket1_begin = span.end = static_cast<std::int32_t>(links_.size());
      if (peer == g) continue;
      const std::span<const GlobalLink> pair = topo_.global_links(g, peer);
      for (int bucket = 0; bucket < 2; ++bucket) {
        if (bucket == 1) span.bucket1_begin = static_cast<std::int32_t>(links_.size());
        for (std::size_t i = 0; i < pair.size(); ++i)
          if (local_hops(r, pair[i].src_router) == bucket) links_.push_back(near_link(pair, i));
      }
      span.end = static_cast<std::int32_t>(links_.size());
    }
  }
}

MinimalPathTable::NearLink MinimalPathTable::near_link(std::span<const GlobalLink> pair,
                                                       std::size_t index) const {
  const RouterId dst = pair[index].dst_router;
  return {static_cast<std::uint16_t>(index), static_cast<std::uint8_t>(row_[dst]),
          static_cast<std::uint8_t>(col_[dst])};
}

int MinimalPathTable::port_to(RouterId from, RouterId to) const {
  assert(from != to && topo_.coords().group_of_router(from) == topo_.coords().group_of_router(to));
  const int fr = row_[from], fc = col_[from], tr = row_[to], tc = col_[to];
  if (fr == tr) return topo_.first_row_port() + (tc < fc ? tc : tc - 1);
  if (fc == tc) return topo_.first_col_port() + (tr < fr ? tr : tr - 1);
  return -1;
}

int MinimalPathTable::local_hops(RouterId a, RouterId b) const {
  assert(topo_.coords().group_of_router(a) == topo_.coords().group_of_router(b));
  return local_hops(row_[a], col_[a], row_[b], col_[b]);
}

void MinimalPathTable::append_local(Route& route, RouterId from, RouterId to, Rng& rng) const {
  if (from == to) return;
  const int direct = port_to(from, to);
  if (direct >= 0) {
    route.push(from, direct);
    return;
  }
  // Two intersection candidates: (from.row, to.col) and (to.row, from.col).
  const int fr = row_[from], fc = col_[from], tr = row_[to], tc = col_[to];
  const RouterId via_row = from + (tc - fc);
  const RouterId via_col = from + (tr - fr) * topo_.params().cols;
  const RouterId mid = rng.bernoulli(0.5) ? via_row : via_col;
  route.push(from, port_to(from, mid));
  route.push(mid, port_to(mid, to));
}

void MinimalPathTable::append_minimal(Route& route, RouterId from, RouterId to, Rng& rng) const {
  if (from == to) return;
  const Coordinates& c = topo_.coords();
  const GroupId gf = c.group_of_router(from);
  const GroupId gt = c.group_of_router(to);
  if (gf == gt) {
    append_local(route, from, to, rng);
    return;
  }

  // Pick a global link minimizing src_hops + 1 + dst_hops; ties broken
  // uniformly by reservoir sampling over the candidate stream. Both routers
  // at the far end are in group gt, so equal coordinates mean the same router.
  const std::span<const GlobalLink> pair = topo_.global_links(gf, gt);
  const int to_row = row_[to], to_col = col_[to];
  int best_cost = 100;
  std::size_t best = 0;
  std::uint64_t ties = 0;
  auto consider = [&](const NearLink& link, int src_hops) {
    const int cost = src_hops + 1 + local_hops(link.dst_row, link.dst_col, to_row, to_col);
    if (cost < best_cost) {
      best_cost = cost;
      best = link.link;
      ties = 1;
    } else if (cost == best_cost) {
      ++ties;
      if (rng.uniform(ties) == 0) best = link.link;
    }
  };

  const Span& span = spans_[span_index(from, gt)];
  for (std::int32_t i = span.begin; i < span.bucket1_begin; ++i) consider(links_[i], 0);
  // Bucket 1 can only help if the current best has dst-side hops >= 1.
  if (best_cost > 2) {
    for (std::int32_t i = span.bucket1_begin; i < span.end; ++i) consider(links_[i], 1);
  }
  // Bucket 2 (2 src-side hops) can only help if best > 3.
  if (best_cost > 3) {
    for (std::size_t i = 0; i < pair.size(); ++i) {
      if (local_hops(from, pair[i].src_router) == 2) consider(near_link(pair, i), 2);
    }
  }
  assert(best_cost < 100);

  const GlobalLink& link = pair[best];
  append_local(route, from, link.src_router, rng);
  route.push(link.src_router, link.src_port);
  append_local(route, link.dst_router, to, rng);
}

int MinimalPathTable::min_hops(RouterId from, RouterId to) const {
  if (from == to) return 0;
  const Coordinates& c = topo_.coords();
  const GroupId gf = c.group_of_router(from);
  const GroupId gt = c.group_of_router(to);
  if (gf == gt) return local_hops(from, to);
  const Span& span = spans_[span_index(from, gt)];
  const int to_row = row_[to], to_col = col_[to];
  auto dst_hops = [&](const NearLink& link) {
    return local_hops(link.dst_row, link.dst_col, to_row, to_col);
  };
  int best = 100;
  for (std::int32_t i = span.begin; i < span.bucket1_begin && best > 1; ++i)
    best = std::min(best, 1 + dst_hops(links_[i]));
  if (best > 2) {
    for (std::int32_t i = span.bucket1_begin; i < span.end && best > 2; ++i)
      best = std::min(best, 2 + dst_hops(links_[i]));
  }
  if (best > 3) {
    for (const GlobalLink& link : topo_.global_links(gf, gt)) {
      if (local_hops(from, link.src_router) == 2)
        best = std::min(best, 3 + local_hops(link.dst_router, to));
      if (best <= 3) break;
    }
  }
  return best;
}

}  // namespace dfly
