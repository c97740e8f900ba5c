// Adaptive (UGAL-L style) routing, matching the paper §III-C: "the path taken
// by a packet will be chosen based on congestion situation from up to four
// possible randomly selected routes, two minimal and two non-minimal".
//
// The decision is made at the source using the source router's output queue
// depths: each candidate is scored as
//     (queued bytes on its first-hop channel + one chunk) * hop count
// and the lowest score wins; ties prefer the minimal candidates. This is the
// locally-sensed UGAL variant — the same information a per-hop adaptive
// implementation uses at the injection decision point. AdaptiveGlobalRouting
// shares this chooser and overrides only the queue a candidate is scored by.
#pragma once

#include "routing/algorithm.hpp"
#include "routing/router_table.hpp"

namespace dfly {

class AdaptiveRouting : public RoutingAlgorithm {
 public:
  /// `bias_bytes` is added to every candidate's queue estimate so that hop
  /// count matters even on an idle network (minimal then always wins).
  /// `nonminimal_penalty` multiplies nonminimal scores — the standard UGAL
  /// threshold that accounts for a Valiant path consuming roughly twice the
  /// link capacity of a minimal one; a packet only detours when the minimal
  /// queue is substantially deeper.
  explicit AdaptiveRouting(const DragonflyTopology& topo, Bytes bias_bytes = 2048,
                           double nonminimal_penalty = 2.0);

  Route compute(NodeId src, NodeId dst, const CongestionView& congestion,
                Rng& rng) const override;
  std::string name() const override { return "adaptive"; }

 protected:
  /// Queue depth a candidate is scored by: its first hop's queued bytes.
  virtual Bytes sensed_queue(const Route& route, const CongestionView& congestion) const;

 private:
  double score(const Route& route, const CongestionView& congestion, bool minimal) const;

  MinimalPathTable table_;
  Bytes bias_bytes_;
  double nonminimal_penalty_;
};

}  // namespace dfly
