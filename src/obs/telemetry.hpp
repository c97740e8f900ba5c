// Per-run observability context: options, counter registration, and the
// run-artifact exporter.
//
// RunTelemetry bundles the flight-recorder tracer (obs/trace.hpp), the
// counter registry + periodic snapshot probe (obs/counters.hpp) and the
// routing-decision stats (routing/algorithm.hpp) for one experiment run, and
// wires them into the network/routing hooks on construction (and out again on
// destruction). With TelemetryOptions::enabled = false none of this is
// constructed and every hook stays a branch-on-null no-op.
//
// Artifacts written per run into <out_dir>/<config>/:
//   trace.json    — Chrome trace-event JSON (chrome://tracing / Perfetto)
//   counters.jsonl — one flat JSON object per counter snapshot
//   heatmap.csv   — per-(router, port) traffic / saturation / utilization
//   metrics.json  — RunMetrics + health outcome + SchedulerStats
#pragma once

#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "routing/algorithm.hpp"

namespace dfly {

class Network;
class HealthMonitor;
struct ExperimentResult;

struct TelemetryOptions {
  bool enabled = false;
  /// Fraction of injected chunks whose full hop-by-hop path is recorded.
  double sample_rate = 0.01;
  /// Run artifacts land in <out_dir>/<config name>/.
  std::string out_dir = "telemetry-out";
  /// Emit trace.json (the largest artifact); counters/heatmap/metrics always.
  bool chrome_trace = true;
  /// Counter-snapshot probe period.
  SimTime snapshot_interval = units::kMillisecond;

  void validate() const;  ///< throws std::invalid_argument on bad values
};

// --- counter registration (subsystem fields -> named registry entries) ---
void register_engine_counters(CounterRegistry& registry, const Engine& engine);
void register_network_counters(CounterRegistry& registry, const Network& network);
void register_routing_counters(CounterRegistry& registry, const RoutingTelemetry& telemetry);
void register_health_counters(CounterRegistry& registry, const HealthMonitor& monitor);

class RunTelemetry {
 public:
  /// Hooks the tracer into `network` and the decision stats into `routing`,
  /// and registers engine/network/routing counters. Both references must
  /// outlive this object; the destructor unhooks them again.
  RunTelemetry(Engine& engine, Network& network, RoutingAlgorithm& routing,
               const TelemetryOptions& options);
  ~RunTelemetry();
  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  /// Starts the periodic counter probe; call once before Engine::run().
  void start() { probe_.start(); }
  /// Stops the probe from rescheduling (call from a completion callback so
  /// pending probes never keep a finished simulation alive).
  void request_stop() { probe_.request_stop(); }
  /// Takes the final end-of-run counter snapshot.
  void finish(SimTime end) { probe_.sample_now(end); }

  const TelemetryOptions& options() const { return options_; }
  CounterRegistry& registry() { return registry_; }
  CounterProbe& probe() { return probe_; }
  ChunkPathTracer& tracer() { return tracer_; }
  const ChunkPathTracer& tracer() const { return tracer_; }
  RoutingTelemetry& routing_stats() { return routing_stats_; }
  const RoutingTelemetry& routing_stats() const { return routing_stats_; }
  const ChromeTraceWriter& trace() const { return trace_; }
  const std::vector<CounterSnapshot>& snapshots() const { return probe_.snapshots(); }

 private:
  Network& network_;
  RoutingAlgorithm& routing_;
  TelemetryOptions options_;
  CounterRegistry registry_;
  ChromeTraceWriter trace_;
  ChunkPathTracer tracer_;
  RoutingTelemetry routing_stats_;
  CounterProbe probe_;
};

/// Serializes the run's artifacts into <out_dir>/<result.config>/ (directories
/// are created as needed). Returns the artifact directory, or an empty string
/// on I/O failure (a warning is logged; the simulation result is unaffected).
std::string export_run_artifacts(const RunTelemetry& telemetry, const ExperimentResult& result,
                                 const Network& network, SimTime end);

}  // namespace dfly
