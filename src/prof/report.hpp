// prof.json: the on-disk form of one run's wall-clock attribution.
//
// Written next to metrics.json (telemetry.out_dir/<config>/prof.json) whenever
// [prof] enabled is set. Layout (schema_version 2; version 1 also carried
// the sharded engine's threads/lanes, lanes_breakdown, lane_imbalance,
// barrier_stall_fraction and histograms.barrier_wait_ns):
//
//   config/wall_ns                      run identity and total wall span
//   subsystems.<name>.{ns,calls}        inclusive wall attribution per target
//   histograms.dispatch_ns              HDR summary + percentiles
//   throughput.{cumulative,rolling}     events/s, chunks/s, sim-per-wall
//
// The file holds wall-clock values and is therefore the ONE artifact allowed
// to differ between identical runs; everything else stays byte-identical with
// profiling on or off.
#pragma once

#include <ostream>
#include <string>

namespace dfly::prof {

class Profiler;

inline constexpr int kProfSchemaVersion = 2;

/// Renders the prof.json document for `profiler` into `os`.
void write_prof_report(std::ostream& os, const Profiler& profiler, const std::string& config);

/// Writes prof.json to `path`, creating parent directories. Returns false on
/// I/O failure (logged, never thrown — profiling must not fail a run).
bool write_prof_json(const std::string& path, const Profiler& profiler, const std::string& config);

}  // namespace dfly::prof
