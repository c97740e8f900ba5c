// prof.json: the on-disk form of one run's wall-clock attribution.
//
// Written next to metrics.json (telemetry.out_dir/<config>/prof.json) whenever
// [prof] enabled is set. Layout (schema_version 4; version 3 also carried a
// checkpoint_io scope and rolling throughput, version 2 the nested
// subsystems event_dispatch and routing, timed on every call):
//
//   config/wall_ns                      run identity and the run's wall span
//   events/stride                       dispatches profiled (exact), stride
//   clock_read_ns                       calibrated cost of one clock read
//   loop_ns/timed_ns                    dispatch loop wall time, sampled time
//   layers.<name>.{est_ns,sampled}      exclusive estimates from the sample
//   scopes.<name>.{ns,calls}            telemetry_export, timed in full
//   histograms.dispatch_ns              sampled dispatches: HDR summary
//   throughput.cumulative               events/s, chunks/s, sim-per-wall
//
// The file holds wall-clock values and is therefore the ONE artifact allowed
// to differ between identical runs; everything else stays byte-identical with
// profiling on or off.
#pragma once

#include <ostream>
#include <string>

namespace dfly::prof {

class Profiler;

inline constexpr int kProfSchemaVersion = 4;

/// Renders the prof.json document for `profiler` into `os`.
void write_prof_report(std::ostream& os, const Profiler& profiler, const std::string& config);

/// Writes prof.json to `path`, creating parent directories. Returns false on
/// I/O failure (logged, never thrown — profiling must not fail a run).
bool write_prof_json(const std::string& path, const Profiler& profiler, const std::string& config);

}  // namespace dfly::prof
