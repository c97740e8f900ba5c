// Routing algorithm interface.
//
// Routes are computed per packet chunk at injection time (source routing).
// Adaptive routing consults a CongestionView exposing the source router's
// output queue depths — the information a UGAL-L implementation has locally.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "routing/route.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dfly {

class DragonflyTopology;

/// Read-only view of router output-channel occupancy, provided by the
/// network; queued_bytes includes chunks waiting for the channel but not the
/// chunk currently on the wire.
class CongestionView {
 public:
  virtual ~CongestionView() = default;
  virtual Bytes queued_bytes(RouterId router, int port) const = 0;
};

/// Per-source-router adaptive-decision counters: how often the source chose a
/// minimal vs. a nonminimal (Valiant) candidate, and the congestion scores
/// that drove the choice.
struct RouteDecisionStats {
  std::uint64_t minimal = 0;     ///< decisions won by a minimal candidate
  std::uint64_t nonminimal = 0;  ///< decisions won by a Valiant candidate
  double winning_score_sum = 0;     ///< score of the chosen candidate
  double minimal_score_sum = 0;     ///< best minimal candidate's score
  double nonminimal_score_sum = 0;  ///< best nonminimal candidate's score
};

/// Decision telemetry an adaptive algorithm records into when a sink is
/// installed via RoutingAlgorithm::set_telemetry (observability layer,
/// src/obs/). Indexed by source router; grows lazily.
class RoutingTelemetry {
 public:
  void record(RouterId src, bool chose_minimal, double winning_score, double best_minimal_score,
              double best_nonminimal_score) {
    if (static_cast<std::size_t>(src) >= per_source_.size()) per_source_.resize(src + 1);
    RouteDecisionStats& d = per_source_[src];
    (chose_minimal ? d.minimal : d.nonminimal) += 1;
    d.winning_score_sum += winning_score;
    d.minimal_score_sum += best_minimal_score;
    d.nonminimal_score_sum += best_nonminimal_score;
  }

  std::uint64_t decisions() const { return minimal_total() + nonminimal_total(); }
  std::uint64_t minimal_total() const {
    std::uint64_t n = 0;
    for (const RouteDecisionStats& d : per_source_) n += d.minimal;
    return n;
  }
  std::uint64_t nonminimal_total() const {
    std::uint64_t n = 0;
    for (const RouteDecisionStats& d : per_source_) n += d.nonminimal;
    return n;
  }
  const std::vector<RouteDecisionStats>& per_source() const { return per_source_; }

  /// Checkpoint support (src/ckpt/): wholesale state replacement on restore
  /// (the totals are derived, so the per-source table is the whole state).
  void restore(std::vector<RouteDecisionStats> per_source) {
    per_source_ = std::move(per_source);
  }

 private:
  std::vector<RouteDecisionStats> per_source_;
};

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  /// Installs (or, with nullptr, removes) a decision-telemetry sink. The sink
  /// must outlive route computations. Algorithms without an adaptive choice
  /// (minimal, Valiant) never record into it.
  void set_telemetry(RoutingTelemetry* telemetry) { telemetry_ = telemetry; }

  /// Computes a complete route for one chunk from node `src` to node `dst`
  /// (src != dst), including the final ejection hop.
  virtual Route compute(NodeId src, NodeId dst, const CongestionView& congestion,
                        Rng& rng) const = 0;

  /// perfbench shim: a no-op that no library algorithm overrides.
  virtual void on_topology_changed() {}

  /// True when compute() reads congestion state beyond the source router's
  /// own output queues (UGAL-G scores whole candidate paths).
  virtual bool uses_remote_congestion() const { return false; }

  virtual std::string name() const = 0;

 protected:
  RoutingTelemetry* telemetry_ = nullptr;  ///< null = telemetry disabled
};

enum class RoutingKind { Minimal, Adaptive, Valiant, AdaptiveGlobal };

const char* to_string(RoutingKind kind);

/// Factory. The returned algorithm keeps a reference to `topo`, which must
/// outlive it.
std::unique_ptr<RoutingAlgorithm> make_routing(RoutingKind kind, const DragonflyTopology& topo);

}  // namespace dfly
