#include "routing/adaptive.hpp"

#include <algorithm>

#include "routing/adaptive_global.hpp"
#include "routing/minimal.hpp"
#include "routing/valiant.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {

AdaptiveRouting::AdaptiveRouting(const DragonflyTopology& topo, Bytes bias_bytes,
                                 double nonminimal_penalty)
    : table_(topo), bias_bytes_(bias_bytes), nonminimal_penalty_(nonminimal_penalty) {}

double AdaptiveRouting::score(const Route& route, const CongestionView& congestion,
                              bool minimal) const {
  const double base =
      static_cast<double>(sensed_queue(route, congestion) + bias_bytes_) * route.routers_traversed();
  return minimal ? base : base * nonminimal_penalty_;
}

Bytes AdaptiveRouting::sensed_queue(const Route& route, const CongestionView& congestion) const {
  return congestion.queued_bytes(route.first().router, route.first().port);
}

Route AdaptiveRouting::compute(NodeId src, NodeId dst, const CongestionView& congestion,
                               Rng& rng) const {
  const Coordinates& c = table_.topology().coords();
  const RouterId r_src = c.router_of_node(src);
  const RouterId r_dst = c.router_of_node(dst);
  const int eject = c.slot_of_node(dst);
  if (r_src == r_dst) {
    Route route;
    route.push(r_dst, eject);
    return route;
  }

  // Two independent minimal instantiations (tie-breaks differ), then two
  // Valiant detours through random intermediate routers, each built in place
  // (a braced list is evaluated left to right, so the RNG order is fixed).
  auto minimal = [&] {
    Route route;
    table_.append_minimal(route, r_src, r_dst, rng);
    route.push(r_dst, eject);
    return route;
  };
  auto valiant = [&] {
    const RouterId via = pick_valiant_intermediate(table_.topology(), r_src, r_dst, rng);
    return valiant_route(table_, r_src, via, r_dst, eject, rng);
  };
  const Route cand[4] = {minimal(), minimal(), valiant(), valiant()};
  // Strict < over (min, min, val, val): the earliest candidate wins a tie, so
  // a minimal route beats a nonminimal one of equal score.
  double scores[4];
  int best = 0;
  for (int i = 0; i < 4; ++i) {
    scores[i] = score(cand[i], congestion, i < 2);
    if (scores[i] < scores[best]) best = i;
  }
  if (telemetry_)
    telemetry_->record(r_src, best < 2, scores[best], std::min(scores[0], scores[1]),
                       std::min(scores[2], scores[3]));
  return cand[best];
}

const char* to_string(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::Minimal: return "min";
    case RoutingKind::Adaptive: return "adp";
    case RoutingKind::Valiant: return "val";
    case RoutingKind::AdaptiveGlobal: return "adpg";
  }
  return "?";
}

std::unique_ptr<RoutingAlgorithm> make_routing(RoutingKind kind, const DragonflyTopology& topo) {
  switch (kind) {
    case RoutingKind::Minimal: return std::make_unique<MinimalRouting>(topo);
    case RoutingKind::Adaptive: return std::make_unique<AdaptiveRouting>(topo);
    case RoutingKind::Valiant: return std::make_unique<ValiantRouting>(topo);
    case RoutingKind::AdaptiveGlobal: return std::make_unique<AdaptiveGlobalRouting>(topo);
  }
  return nullptr;
}

}  // namespace dfly
