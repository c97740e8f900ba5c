// Versioned whole-simulation checkpoint/restore (the trade-off study's long
// sweeps are expensive; a preempted run should resume, not restart).
//
// A checkpoint captures everything the event-driven simulation needs to
// continue bit-identically: the engine clock, sequence counter and the full
// event queue (with the scheduler's clock and counters, so resumed
// SchedulerStats match), per-router VC buffers and credit counters, NIC
// injection queues, the in-flight chunk/message pools, every RNG stream, the
// replay engine's per-rank cursors and the telemetry accumulators — so a
// resumed run produces byte-identical metrics.json and counters.jsonl. The
// topology is immutable during a run and is not part of the snapshot: resume
// against the same topology the checkpointed run used.
//
// Event-queue entries reference their EventHandler by a small stable id
// (handler registry in checkpoint.cpp) instead of a pointer; the registry
// order is part of the format.
#pragma once

#include <string>

#include "ckpt/snapshot_io.hpp"
#include "util/units.hpp"

namespace dfly {

class Engine;
class Network;
class ReplayEngine;
class BackgroundDriver;
class HealthMonitor;
class RunTelemetry;
struct ExperimentResult;

namespace ckpt {

/// The live objects of one experiment run, wired together by
/// core/experiment.cpp. `engine`..`replay` are mandatory; the rest mirror the
/// run's optional subsystems and their presence is recorded in (and validated
/// against) the snapshot — a checkpoint taken with background traffic cannot
/// silently resume without it.
/// No POD assert: a wiring struct of live-object pointers, serialized
/// field-wise by save_checkpoint and never byte-framed.
struct SimSnapshotParts {
  std::string config;        ///< experiment config name ("cont-min", ...)
  std::uint64_t seed = 0;    ///< master seed; both are identity-checked on load
  Engine* engine = nullptr;
  Network* network = nullptr;
  ReplayEngine* replay = nullptr;
  BackgroundDriver* background = nullptr;
  HealthMonitor* monitor = nullptr;
  RunTelemetry* telemetry = nullptr;
};

/// Writes a SimState snapshot of `parts` to `path` (atomically: tmp+rename).
/// Throws std::runtime_error on I/O failure or if the event queue holds a
/// handler outside the registry.
void save_checkpoint(const std::string& path, const SimSnapshotParts& parts);

/// Restores a SimState snapshot into freshly constructed `parts` (same
/// config, seed, topology and subsystem lineup as the checkpointed run; all
/// but the topology are validated). After this call the engine's clock, queue
/// and every subsystem hold the checkpointed state; do NOT call any start()
/// method, the restored queue already contains the pending events.
void load_checkpoint(const std::string& path, SimSnapshotParts& parts);

/// Summary header of a snapshot, readable without reconstructing the run.
/// No POD assert: holds a std::string config and is written field-wise via
/// Writer, never memcpy-framed.
struct CheckpointInfo {
  std::string config;
  std::uint64_t seed = 0;
  SimTime time = 0;                  ///< engine clock at the snapshot
  std::uint64_t events_processed = 0;
  std::uint64_t pending_events = 0;
  bool has_background = false;
  bool has_monitor = false;
  bool has_telemetry = false;
};

CheckpointInfo inspect_checkpoint(const std::string& path);

/// Finished-run result snapshot (SnapshotKind::SweepResult) — run_matrix
/// marks completed configs with these so a resumed sweep skips them.
void save_result(const std::string& path, const ExperimentResult& result);
ExperimentResult load_result(const std::string& path);

}  // namespace ckpt
}  // namespace dfly
