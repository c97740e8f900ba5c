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
/// each finished config drops a <dir>/<config>.<fingerprint>.done result
/// marker, the fingerprint being 16 hex digits of a hash over the workload's
/// trace, the options (less [checkpoint]), the background spec and the
/// config name. With checkpoint.resume set, a config whose marker exists is
/// loaded from it and skipped, so an interrupted sweep re-runs only the
/// configs it had not finished, and a marker never answers for a different
/// workload, scale, seed or background.
std::vector<ExperimentResult> run_matrix(const Workload& workload,
                                         const std::vector<ExperimentConfig>& configs,
                                         const ExperimentOptions& options, int threads = 0);

}  // namespace dfly
