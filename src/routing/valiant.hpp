// Valiant (fully nonminimal) routing: every chunk detours through a uniformly
// random intermediate router, then proceeds minimally. Included both as the
// nonminimal half of adaptive routing and as a standalone baseline for the
// ablation benches.
#pragma once

#include "routing/algorithm.hpp"
#include "routing/router_table.hpp"

namespace dfly {

class ValiantRouting : public RoutingAlgorithm {
 public:
  explicit ValiantRouting(const DragonflyTopology& topo);

  Route compute(NodeId src, NodeId dst, const CongestionView& congestion,
                Rng& rng) const override;
  std::string name() const override { return "valiant"; }

 private:
  MinimalPathTable table_;
};

/// Shared helper: minimal(r_src -> via) + minimal(via -> r_dst) followed by
/// the ejection hop on `eject_port`. `via` must differ from both routers or
/// equal one of them (then it degenerates to the minimal path).
Route valiant_route(const MinimalPathTable& table, RouterId r_src, RouterId via, RouterId r_dst,
                    int eject_port, Rng& rng);

/// Picks a Valiant intermediate router: uniform over routers outside the
/// source and destination routers (matching "randomly selecting an
/// intermediate router from the network", paper §III-C). The selection loop
/// is bounded: after 8 rejected draws (vanishingly unlikely for any topology
/// with >= 3 routers) it falls back to a deterministic modular scan from
/// r_src, and a degenerate table of <= 2 routers short-circuits to r_dst
/// (minimal route) instead of spinning forever.
RouterId pick_valiant_intermediate(int total_routers, RouterId r_src, RouterId r_dst, Rng& rng);
RouterId pick_valiant_intermediate(const DragonflyTopology& topo, RouterId r_src, RouterId r_dst,
                                   Rng& rng);

}  // namespace dfly
