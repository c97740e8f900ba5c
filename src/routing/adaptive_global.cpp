#include "routing/adaptive_global.hpp"

#include <algorithm>

namespace dfly {

Bytes AdaptiveGlobalRouting::sensed_queue(const Route& route,
                                          const CongestionView& congestion) const {
  Bytes bottleneck = 0;
  for (int i = 0; i < route.size(); ++i)
    bottleneck = std::max(bottleneck, congestion.queued_bytes(route[i].router, route[i].port));
  return bottleneck;
}

}  // namespace dfly
