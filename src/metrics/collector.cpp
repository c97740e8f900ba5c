#include "metrics/collector.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace dfly {

double RunMetrics::max_comm_ms() const {
  double m = 0;
  for (const double t : comm_time_ms) m = std::max(m, t);
  return m;
}

double RunMetrics::median_comm_ms() const {
  return percentile(comm_time_ms, 50.0);
}

RunMetrics collect_metrics(const Network& network, const ReplayEngine& replay,
                           const Placement& placement, const Engine& engine) {
  RunMetrics m;
  const DragonflyTopology& topo = network.topology();

  m.comm_time_ms.reserve(placement.ranks());
  m.avg_hops.reserve(placement.ranks());
  for (int rank = 0; rank < placement.ranks(); ++rank) {
    const SimTime finish = replay.rank_finish_time(rank);
    m.comm_time_ms.push_back(finish >= 0 ? units::to_ms(finish) : -1.0);
    m.avg_hops.push_back(network.hop_stats(placement.node_of_rank(rank)).average());
  }

  for (const RouterId r : serving_routers(topo.params(), placement)) {
    for (int p = 0; p < topo.ports_per_router(); ++p) {
      const OutPort& port = network.port(r, p);
      switch (port.kind) {
        case PortKind::LocalRow:
        case PortKind::LocalCol:
          m.local_traffic_mb.push_back(units::to_mb(port.traffic));
          m.local_saturation_ms.push_back(units::to_ms(port.saturated_time));
          break;
        case PortKind::Global:
          m.global_traffic_mb.push_back(units::to_mb(port.traffic));
          m.global_saturation_ms.push_back(units::to_ms(port.saturated_time));
          break;
        case PortKind::Terminal:
          break;
      }
    }
  }

  m.makespan_ms = m.comm_time_ms.empty()
                      ? 0.0
                      : *std::max_element(m.comm_time_ms.begin(), m.comm_time_ms.end());
  m.events = engine.events_processed();
  m.chunks = network.chunks_forwarded();
  m.bytes_delivered = network.bytes_delivered();
  m.scheduler = engine.scheduler_stats();
  return m;
}

}  // namespace dfly
