// External-traffic impact driver (paper §IV-C, Figs. 8-10): run the target
// application under each configuration while a synthetic background job
// floods the rest of the machine, and compare against the interference-free
// runs. Several background specs share one set of interference-free runs.
#pragma once

#include <vector>

#include "core/experiment.hpp"
#include "metrics/report.hpp"

namespace dfly {

struct InterferenceResult {
  std::vector<NamedMetrics> with_background;
  std::vector<NamedMetrics> baseline;  ///< same configs, no background
  Bytes peak_background_load = 0;      ///< Table II value for this spec

  /// Per-config slowdown of median communication time, with vs without
  /// background (the paper's "performance degradation").
  Table degradation_table(const std::string& title) const;
};

/// Runs `workload` under every config once per spec with that background,
/// and once without background; all of these runs go to one run_jobs pool.
/// Returns one result per spec, in `specs` order; every result carries the
/// same baseline.
std::vector<InterferenceResult> run_interference(const Workload& workload,
                                                 const std::vector<ExperimentConfig>& configs,
                                                 const ExperimentOptions& options,
                                                 const std::vector<BackgroundSpec>& specs,
                                                 int threads = 0);

}  // namespace dfly
