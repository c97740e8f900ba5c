// Gathers the study's four metric families (paper §III-E) from a finished
// simulation into plain sample vectors:
//   - communication time per rank (ms)
//   - average hops per rank
//   - traffic per local / global channel of the routers serving the app (MB)
//   - saturation time per local / global channel of those routers (ms)
#pragma once

#include <vector>

#include "net/network.hpp"
#include "place/placement.hpp"
#include "replay/replay.hpp"

namespace dfly {

struct RunMetrics {
  std::vector<double> comm_time_ms;          ///< per rank
  std::vector<double> avg_hops;              ///< per rank
  std::vector<double> local_traffic_mb;      ///< per local channel, serving routers
  std::vector<double> global_traffic_mb;     ///< per global channel, serving routers
  std::vector<double> local_saturation_ms;   ///< per local channel, serving routers
  std::vector<double> global_saturation_ms;  ///< per global channel, serving routers

  double makespan_ms = 0;      ///< finish time of the slowest rank
  std::uint64_t events = 0;    ///< engine events processed
  std::uint64_t chunks = 0;    ///< chunk-hops forwarded
  Bytes bytes_delivered = 0;
  SchedulerStats scheduler;    ///< scheduler occupancy/promotion counters

  double max_comm_ms() const;
  double median_comm_ms() const;
};

/// Collects metrics after the engine has drained. Channel populations are the
/// local/global channels of routers serving at least one node of `placement`
/// (the population the paper plots; §IV-C states it explicitly).
RunMetrics collect_metrics(const Network& network, const ReplayEngine& replay,
                           const Placement& placement, const Engine& engine);

}  // namespace dfly
