#include "routing/router_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

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
  std::size_t widest = 0;
  for (GroupId g = 0; g < p.groups; ++g)
    for (GroupId peer = 0; peer < p.groups; ++peer)
      if (peer != g) widest = std::max(widest, topo_.global_links(g, peer).size());
  words_ = (widest + 63) / 64;
  pair_words_ = static_cast<std::size_t>(1 + 2 * (p.rows + p.cols)) * words_;
  masks_.assign(static_cast<std::size_t>(p.groups) * p.groups * pair_words_, 0);
  for (GroupId g = 0; g < p.groups; ++g) {
    for (GroupId peer = 0; peer < p.groups; ++peer) {
      if (peer == g) continue;
      const std::span<const GlobalLink> pair = topo_.global_links(g, peer);
      for (std::size_t i = 0; i < pair.size(); ++i) {
        const RouterId src = pair[i].src_router, dst = pair[i].dst_router;
        for (const int m : {0, 1 + row_[src], 1 + p.rows + col_[src],
                            1 + p.rows + p.cols + row_[dst], 1 + 2 * p.rows + p.cols + col_[dst]})
          masks_[mask_at(g, peer, m) + i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
  }
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
  if (row_[a] == row_[b]) return col_[a] == col_[b] ? 0 : 1;
  return col_[a] == col_[b] ? 1 : 2;
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
  const int rows = topo_.params().rows, cols = topo_.params().cols;
  const std::uint64_t* all = &masks_[mask_at(gf, gt, 0)];
  const std::uint64_t* src_row = &masks_[mask_at(gf, gt, 1 + row_[from])];
  const std::uint64_t* src_col = &masks_[mask_at(gf, gt, 1 + rows + col_[from])];
  const std::uint64_t* dst_row = &masks_[mask_at(gf, gt, 1 + rows + cols + row_[to])];
  const std::uint64_t* dst_col = &masks_[mask_at(gf, gt, 1 + 2 * rows + cols + col_[to])];
  int best_cost = 100;
  std::size_t best = 0;
  std::uint64_t ties = 0;
  // Visits one bucket's links in link order, skipping those that can neither
  // tie nor beat the running best (they would not draw), so every visit
  // either improves the best or is a tie.
  auto scan = [&](int src_hops, auto bucket) {
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t dst0 = dst_row[w] & dst_col[w];  // lands on `to`
      const std::uint64_t dst1 = dst_row[w] | dst_col[w];  // at most one hop from `to`
      auto can_tie = [&]() -> std::uint64_t {
        const int dst_slack = best_cost - 1 - src_hops;
        if (dst_slack >= 2) return ~std::uint64_t{0};
        return dst_slack == 1 ? dst1 : dst_slack == 0 ? dst0 : 0;
      };
      std::uint64_t next = bucket(w) & can_tie();
      while (next != 0) {
        const int bit = std::countr_zero(next);
        next &= next - 1;
        const int cost = src_hops + 3 - static_cast<int>((dst0 >> bit) & 1) -
                         static_cast<int>((dst1 >> bit) & 1);
        if (cost < best_cost) {
          best_cost = cost;
          best = w * 64 + bit;
          ties = 1;
          next &= can_tie();
        } else if (rng.uniform(++ties) == 0) {
          best = w * 64 + bit;
        }
      }
    }
  };
  // The gates are part of the candidate stream: a best of 2 (or 3) would
  // still tie, and draw, with bucket 1's (or bucket 2's) cheapest links.
  scan(0, [&](std::size_t w) { return src_row[w] & src_col[w]; });
  if (best_cost > 2) scan(1, [&](std::size_t w) { return src_row[w] ^ src_col[w]; });
  if (best_cost > 3) scan(2, [&](std::size_t w) { return all[w] & ~(src_row[w] | src_col[w]); });
  assert(best_cost < 100);

  const GlobalLink& link = topo_.global_links(gf, gt)[best];
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
  int best = 100;
  for (const GlobalLink& link : topo_.global_links(gf, gt))
    best = std::min(best, local_hops(from, link.src_router) + 1 + local_hops(link.dst_router, to));
  return best;
}

}  // namespace dfly
