// Minimal routing (paper §III-C): within a group, at most one intersection
// router; across groups, a global link directly connecting to the
// destination group. Guarantees the minimum hop count; has no congestion
// sensing.
#pragma once

#include "routing/algorithm.hpp"
#include "routing/router_table.hpp"

namespace dfly {

class MinimalRouting : public RoutingAlgorithm {
 public:
  explicit MinimalRouting(const DragonflyTopology& topo);

  Route compute(NodeId src, NodeId dst, const CongestionView& congestion,
                Rng& rng) const override;
  std::string name() const override { return "minimal"; }

  const MinimalPathTable& table() const { return table_; }

 private:
  MinimalPathTable table_;
};

}  // namespace dfly
