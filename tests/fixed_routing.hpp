// A routing algorithm for tests that pins each (src, dst) pair to a chosen
// router path, so a test can make flows meet on one output port on chosen
// VCs (the VC of a hop is its index in the route).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "routing/algorithm.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {

class FixedRouting : public RoutingAlgorithm {
 public:
  explicit FixedRouting(const DragonflyTopology& topo) : topo_(topo) {}

  /// Routes `src` -> `dst` through `routers`: the first is src's router, the
  /// last is dst's, and consecutive routers share a local link.
  void pin(NodeId src, NodeId dst, const std::vector<RouterId>& routers) {
    Route route;
    for (std::size_t i = 0; i + 1 < routers.size(); ++i)
      route.push(routers[i], topo_.local_port_to(routers[i], routers[i + 1]));
    route.push(routers.back(), topo_.coords().slot_of_node(dst));
    routes_[{src, dst}] = route;
  }

  /// Routes `src` -> `dst` along `route` as given.
  void pin(NodeId src, NodeId dst, const Route& route) { routes_[{src, dst}] = route; }

  Route compute(NodeId src, NodeId dst, const CongestionView& /*congestion*/,
                Rng& /*rng*/) const override {
    return routes_.at({src, dst});
  }

  std::string name() const override { return "fixed"; }

 private:
  const DragonflyTopology& topo_;
  std::map<std::pair<NodeId, NodeId>, Route> routes_;
};

}  // namespace dfly
