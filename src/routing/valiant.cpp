#include "routing/valiant.hpp"

#include "topo/dragonfly.hpp"

namespace dfly {

ValiantRouting::ValiantRouting(const DragonflyTopology& topo) : table_(topo) {}

Route valiant_route(const MinimalPathTable& table, RouterId r_src, RouterId via, RouterId r_dst,
                    int eject_port, Rng& rng) {
  Route route;
  table.append_minimal(route, r_src, via, rng);
  table.append_minimal(route, via, r_dst, rng);
  route.push(r_dst, eject_port);
  return route;
}

RouterId pick_valiant_intermediate(int total_routers, RouterId r_src, RouterId r_dst, Rng& rng) {
  const int total = total_routers;
  // With two routers (or one) there is no third router to bounce through;
  // the old rejection loop would spin forever. Route minimally instead —
  // via == r_dst makes valiant_route collapse to the minimal path.
  if (total <= 2) return r_dst;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto via = static_cast<RouterId>(rng.uniform(static_cast<std::uint64_t>(total)));
    if (via != r_src && via != r_dst) return via;
  }
  // Statistically unreachable for total >= 3 (each draw misses with
  // probability <= 2/3), but bound the loop anyway: take the first router
  // after r_src, modulo the table, that is neither endpoint.
  for (int offset = 1; offset < total; ++offset) {
    const auto via = static_cast<RouterId>((r_src + offset) % total);
    if (via != r_src && via != r_dst) return via;
  }
  return r_dst;
}

RouterId pick_valiant_intermediate(const DragonflyTopology& topo, RouterId r_src, RouterId r_dst,
                                   Rng& rng) {
  return pick_valiant_intermediate(topo.params().total_routers(), r_src, r_dst, rng);
}

Route ValiantRouting::compute(NodeId src, NodeId dst, const CongestionView& /*congestion*/,
                              Rng& rng) const {
  const Coordinates& c = table_.topology().coords();
  const RouterId r_src = c.router_of_node(src);
  const RouterId r_dst = c.router_of_node(dst);
  if (r_src == r_dst) {
    Route route;
    route.push(r_dst, c.slot_of_node(dst));
    return route;
  }
  const RouterId via = pick_valiant_intermediate(table_.topology(), r_src, r_dst, rng);
  return valiant_route(table_, r_src, via, r_dst, c.slot_of_node(dst), rng);
}

}  // namespace dfly
