// The paper's experiment harness: a configuration is a (placement policy,
// routing mechanism) pair (Table I); an experiment runs one application
// workload alone — or with a background job — on the Theta-like system and
// yields RunMetrics.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fault/health.hpp"
#include "metrics/collector.hpp"
#include "net/params.hpp"
#include "obs/telemetry.hpp"
#include "prof/profiler.hpp"
#include "replay/replay.hpp"
#include "place/placement.hpp"
#include "routing/algorithm.hpp"
#include "topo/dragonfly.hpp"
#include "workload/background.hpp"
#include "workload/workload.hpp"

namespace dfly {

struct ExperimentConfig {
  PlacementKind placement = PlacementKind::Contiguous;
  RoutingKind routing = RoutingKind::Minimal;

  /// Table I nomenclature: "cont-min", "rand-adp", ...
  std::string name() const {
    return std::string(to_string(placement)) + "-" + to_string(routing);
  }
};

/// The full 5 x 2 configuration matrix of Table I, in the paper's order
/// (all placements with minimal routing, then all with adaptive).
std::vector<ExperimentConfig> table1_configs();

/// The four extreme configurations used by the sensitivity study (§IV-B).
std::vector<ExperimentConfig> extreme_configs();

/// perfbench shim: must stay inactive (run_experiment throws otherwise).
struct CheckpointOptions {
  std::string path;
  bool resume = false;

  bool active() const { return !path.empty(); }
};

struct ExperimentOptions {
  TopoParams topo = TopoParams::theta();
  NetworkParams net = NetworkParams::theta();
  std::uint64_t seed = 42;
  double msg_scale = 1.0;  ///< multiplies every trace message size
  ReplayOptions replay;    ///< eager/rendezvous protocol knobs
  std::optional<BackgroundSpec> background;
  std::uint64_t max_events = 0;  ///< 0 = unlimited; watchdog for tests
  /// Must stay 0: the engine is serial, and run_experiment throws
  /// std::invalid_argument otherwise. Kept so callers that set it still
  /// build; sweep parallelism is run_matrix's `threads` argument.
  int threads = 0;
  /// perfbench shim: must stay empty (run_experiment throws otherwise).
  std::vector<int> faults;
  HealthOptions health;     ///< progress/conservation monitor settings
  TelemetryOptions telemetry;  ///< flight-recorder tracing + run artifacts
  CheckpointOptions checkpoint;  ///< perfbench shim: must stay inactive
  /// [prof] wall-clock self-profiling (src/prof/, DESIGN.md §11): sampled,
  /// exclusive layer attribution into prof.json. Never perturbs the
  /// simulation or its other artifacts.
  prof::ProfOptions prof;
};

struct ExperimentResult {
  std::string config;
  RunMetrics metrics;
  Bytes background_bytes = 0;
  bool hit_event_limit = false;
  /// perfbench shims: always 0 (the network never drops), not exported.
  Bytes bytes_dropped = 0;
  Bytes bytes_retransmitted = 0;
  // --- health outcome ---
  bool stalled = false;           ///< HealthMonitor stopped a no-progress run
  bool conservation_ok = true;    ///< chunk-conservation audit at end of run
  /// Structured diagnostic dump; non-empty when the run stalled, tripped the
  /// event-limit watchdog, or failed the conservation audit.
  std::string health_report;
  // --- telemetry outcome (zeros/empty when telemetry is disabled) ---
  std::string telemetry_dir;  ///< artifact directory; empty on export failure
  std::uint64_t trace_chunks_seen = 0;
  std::uint64_t trace_chunks_sampled = 0;
  /// perfbench shim: always false (there is no mid-run stop), not exported.
  bool stopped_at_checkpoint = false;
};

/// The job placement run_experiment uses for `config`. Its draws depend on
/// (seed, placement kind) only, so a given policy selects the same nodes
/// under every routing, the comparison the paper makes.
Placement experiment_placement(const Workload& workload, const ExperimentConfig& config,
                               const ExperimentOptions& options);

/// Runs `workload` under `config`. If `shared_topo` is non-null it must match
/// options.topo and is reused read-only (topology construction is the only
/// sizable fixed cost); otherwise a topology is built locally.
ExperimentResult run_experiment(const Workload& workload, const ExperimentConfig& config,
                                const ExperimentOptions& options,
                                const DragonflyTopology* shared_topo = nullptr);

}  // namespace dfly
