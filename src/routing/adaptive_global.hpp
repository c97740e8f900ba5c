// Adaptive routing with global congestion knowledge (UGAL-G).
//
// Identical candidate generation and choice to AdaptiveRouting (2 minimal + 2
// Valiant), but each candidate is scored by the *bottleneck* queue along its
// entire path rather than the source router's local view. Physically
// unrealizable (no router knows remote queues instantaneously) but a useful
// upper bound on what adaptive routing could achieve — included for the
// ablation study.
#pragma once

#include "routing/adaptive.hpp"

namespace dfly {

class AdaptiveGlobalRouting : public AdaptiveRouting {
 public:
  using AdaptiveRouting::AdaptiveRouting;

  std::string name() const override { return "adaptive-global"; }
  bool uses_remote_congestion() const override { return true; }

 protected:
  Bytes sensed_queue(const Route& route, const CongestionView& congestion) const override;
};

}  // namespace dfly
