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
  // A span's capacity is its as-built size: every link, up or down, whose
  // source shares the router's row or column. Failures only shrink a span.
  spans_.resize(static_cast<std::size_t>(p.total_routers()) * p.groups);
  std::size_t offset = 0;
  for (RouterId r = 0; r < p.total_routers(); ++r) {
    const GroupId g = c.group_of_router(r);
    for (GroupId peer = 0; peer < p.groups; ++peer) {
      spans_[span_index(r, peer)].begin = static_cast<std::int32_t>(offset);
      if (peer == g) continue;
      for (const GlobalLink& link : topo_.all_global_links(g, peer))
        offset += row_[r] == row_[link.src_router] || col_[r] == col_[link.src_router];
      if (offset > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
        throw std::length_error("MinimalPathTable: too many near links for 32-bit offsets");
    }
  }
  links_.resize(offset);
  pair_seen_.resize(static_cast<std::size_t>(p.groups) * p.groups);
  local_seen_.resize(static_cast<std::size_t>(p.groups));
  for (RouterId r = 0; r < p.total_routers(); ++r) {
    const GroupId g = c.group_of_router(r);
    for (GroupId peer = 0; peer < p.groups; ++peer) {
      if (peer != g) rebuild_entry(r, peer);
    }
  }
  for (GroupId a = 0; a < p.groups; ++a) {
    local_seen_[a] = topo_.local_version(a);
    for (GroupId b = 0; b < p.groups; ++b)
      pair_seen_[static_cast<std::size_t>(a) * p.groups + b] = topo_.pair_version(a, b);
  }
  epoch_seen_ = topo_.epoch();
}

MinimalPathTable::NearLink MinimalPathTable::near_link(const GlobalLink& link) const {
  return {link.src_router, link.dst_router, static_cast<std::int16_t>(link.src_port),
          row_[link.dst_router], col_[link.dst_router]};
}

void MinimalPathTable::rebuild_entry(RouterId r, GroupId peer) {
  const GroupId g = topo_.coords().group_of_router(r);
  assert(peer != g);
  const std::size_t index = span_index(r, peer);
  Span& span = spans_[index];
  [[maybe_unused]] const std::size_t capacity =
      index + 1 < spans_.size() ? spans_[index + 1].begin : links_.size();
  std::int32_t n = span.begin;
  for (int bucket = 0; bucket < 2; ++bucket) {
    if (bucket == 1) span.bucket1_begin = n;
    for (const GlobalLink& link : topo_.global_links(g, peer)) {
      if (local_hops(r, link.src_router) != bucket) continue;
      assert(static_cast<std::size_t>(n) < capacity);
      links_[n++] = near_link(link);
    }
  }
  span.end = n;
}

void MinimalPathTable::refresh() {
  if (epoch_seen_ == topo_.epoch()) return;
  const TopoParams& p = topo_.params();
  const int rpg = p.routers_per_group();

  // A local-link change inside group g reclassifies the source-side buckets
  // of every entry owned by g's routers (toward every peer). A global-link
  // change between a and b invalidates a's entries toward b and b's toward a.
  std::vector<char> group_stale(static_cast<std::size_t>(p.groups), 0);
  for (GroupId g = 0; g < p.groups; ++g) {
    if (local_seen_[g] != topo_.local_version(g)) {
      group_stale[g] = 1;
      local_seen_[g] = topo_.local_version(g);
    }
  }
  for (GroupId a = 0; a < p.groups; ++a) {
    for (GroupId b = 0; b < p.groups; ++b) {
      if (a == b) continue;
      const std::size_t pv = static_cast<std::size_t>(a) * p.groups + b;
      const bool pair_stale = pair_seen_[pv] != topo_.pair_version(a, b);
      if (pair_stale) pair_seen_[pv] = topo_.pair_version(a, b);
      if (!pair_stale && !group_stale[a]) continue;
      for (int i = 0; i < rpg; ++i) rebuild_entry(a * rpg + i, b);
    }
  }
  epoch_seen_ = topo_.epoch();
}

int MinimalPathTable::port_to(RouterId from, RouterId to) const {
  assert(from != to && topo_.coords().group_of_router(from) == topo_.coords().group_of_router(to));
  const int fr = row_[from], fc = col_[from], tr = row_[to], tc = col_[to];
  if (fr == tr) return topo_.first_row_port() + (tc < fc ? tc : tc - 1);
  if (fc == tc) return topo_.first_col_port() + (tr < fr ? tr : tr - 1);
  return -1;
}

int MinimalPathTable::local_hops(RouterId a, RouterId b) const {
  return local_hops(a, row_[a], col_[a], b, row_[b], col_[b]);
}

int MinimalPathTable::local_hops(RouterId a, int a_row, int a_col, RouterId b, int b_row,
                                 int b_col) const {
  assert(topo_.coords().group_of_router(a) == topo_.coords().group_of_router(b));
  if (a == b) return 0;
  if (a_row != b_row && a_col != b_col) return 2;
  if (topo_.disabled_local_links() == 0) return 1;
  // Same row or column but the direct link may be down; the topology's
  // connectivity guard guarantees a 2-hop alternative exists.
  return topo_.port_enabled(a, port_to(a, b)) ? 1 : 2;
}

void MinimalPathTable::append_local(Route& route, RouterId from, RouterId to, Rng& rng) const {
  if (from == to) return;
  const int direct = port_to(from, to);
  const int fr = row_[from], fc = col_[from], tr = row_[to], tc = col_[to];
  const int cols = topo_.params().cols;
  if (topo_.disabled_local_links() == 0) {
    // Healthy fast path; keep the RNG draw sequence identical to the
    // pre-fault-API behaviour so seeded runs stay bit-reproducible.
    if (direct >= 0) {
      route.push(from, direct);
      return;
    }
    // Two intersection candidates: (from.row, to.col) and (to.row, from.col).
    const RouterId via_row = from + (tc - fc);
    const RouterId via_col = from + (tr - fr) * cols;
    const RouterId mid = rng.bernoulli(0.5) ? via_row : via_col;
    route.push(from, port_to(from, mid));
    route.push(mid, port_to(mid, to));
    return;
  }

  if (direct >= 0 && topo_.port_enabled(from, direct)) {
    route.push(from, direct);
    return;
  }
  // Direct link missing or down: pick uniformly among the 2-hop mids whose
  // both legs are up, counting them first and then walking to the drawn one.
  // The connectivity guard keeps them non-empty.
  auto hop_ok = [&](RouterId x, RouterId y) {
    const int port = port_to(x, y);
    return port >= 0 && topo_.port_enabled(x, port);
  };
  // Visits the usable mids in order until `stop` returns true.
  auto for_each_mid = [&](auto&& stop) {
    auto visit = [&](RouterId m) { return hop_ok(from, m) && hop_ok(m, to) && stop(m); };
    if (fr == tr) {
      for (int col = 0; col < cols; ++col)
        if (col != fc && col != tc && visit(from + (col - fc))) return;
    } else if (fc == tc) {
      for (int row = 0; row < topo_.params().rows; ++row)
        if (row != fr && row != tr && visit(from + (row - fr) * cols)) return;
    } else if (!visit(from + (tc - fc))) {
      visit(from + (tr - fr) * cols);
    }
  };
  std::uint64_t usable = 0;
  for_each_mid([&](RouterId) { ++usable; return false; });
  assert(usable > 0 && "connectivity guard violated");
  std::uint64_t pick = rng.uniform(usable);
  RouterId mid = to;
  for_each_mid([&](RouterId m) { mid = m; return pick-- == 0; });
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
  // uniformly by reservoir sampling over the candidate stream.
  const int to_row = row_[to], to_col = col_[to];
  int best_cost = 100;
  NearLink best{};
  std::uint64_t ties = 0;
  auto consider = [&](const NearLink& link, int src_hops) {
    const int cost =
        src_hops + 1 + local_hops(link.dst_router, link.dst_row, link.dst_col, to, to_row, to_col);
    if (cost < best_cost) {
      best_cost = cost;
      best = link;
      ties = 1;
    } else if (cost == best_cost) {
      ++ties;
      if (rng.uniform(ties) == 0) best = link;
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
    for (const GlobalLink& link : topo_.global_links(gf, gt)) {
      if (local_hops(from, link.src_router) == 2) consider(near_link(link), 2);
    }
  }
  assert(best_cost < 100);

  append_local(route, from, best.src_router, rng);
  route.push(best.src_router, best.src_port);
  append_local(route, best.dst_router, to, rng);
}

int MinimalPathTable::min_hops(RouterId from, RouterId to) const {
  if (from == to) return 0;
  const Coordinates& c = topo_.coords();
  const GroupId gf = c.group_of_router(from);
  const GroupId gt = c.group_of_router(to);
  if (gf == gt) return local_hops(from, to);
  const Span& span = spans_[span_index(from, gt)];
  int best = 100;
  for (std::int32_t i = span.begin; i < span.bucket1_begin && best > 1; ++i)
    best = std::min(best, 1 + local_hops(links_[i].dst_router, to));
  if (best > 2) {
    for (std::int32_t i = span.bucket1_begin; i < span.end && best > 2; ++i)
      best = std::min(best, 2 + local_hops(links_[i].dst_router, to));
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
