// Parallel execution of a configuration matrix.
//
// Each (placement, routing) experiment is an independent sequential
// simulation; the study's sweeps parallelize perfectly across
// configurations. A small worker pool shares one immutable topology.
#pragma once

#include <vector>

#include "core/experiment.hpp"

namespace dfly {

/// Runs `workload` under every config, in parallel over `threads` workers
/// (0 = hardware concurrency). Results are returned in `configs` order.
/// Exceptions from worker runs are rethrown on the calling thread.
///
/// With options.checkpoint active, options.checkpoint.path names a DIRECTORY:
/// each in-flight config checkpoints to <dir>/<config>.ckpt and drops a
/// <dir>/<config>.done result marker on completion. With checkpoint.resume
/// set, configs with a .done marker are loaded from it and skipped, and
/// configs with a .ckpt resume mid-run — so an interrupted sweep picks up
/// where it left off.
std::vector<ExperimentResult> run_matrix(const Workload& workload,
                                         const std::vector<ExperimentConfig>& configs,
                                         const ExperimentOptions& options, int threads = 0);

}  // namespace dfly
