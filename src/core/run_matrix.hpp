// Parallel execution of a sweep's jobs.
//
// Each job (workload, placement x routing config, options) is an independent
// sequential simulation seeded on its own, so a sweep parallelizes perfectly
// and its results do not depend on the order its jobs run in. One pool runs
// a whole job list, longest predicted job first, so the last jobs to start
// are the short ones and no worker idles behind a long straggler
// (DESIGN.md §9).
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "core/experiment.hpp"

namespace dfly {

/// One run of a sweep. The workload is not owned: it must outlive the call
/// that runs the job.
struct SweepJob {
  const Workload* workload = nullptr;
  ExperimentConfig config;
  ExperimentOptions options;
};

/// The key jobs are dispatched by, largest first: jobs with a background
/// spec, then the predicted work.
struct PredictedWork {
  bool background = false;
  /// Sum over the trace's Send/Isend ops of chunks x (routers on a minimal
  /// path between the two ranks' routers + minimal-path selections per
  /// route decision of the job's routing).
  std::uint64_t work = 0;

  auto operator<=>(const PredictedWork&) const = default;
};

/// The predicted work of one job, from its trace and its placement (drawn as
/// run_experiment draws it). Runs no simulation.
PredictedWork predicted_work(const SweepJob& job);

/// Indices into `jobs` in the order run_jobs starts them: descending
/// predicted_work, ties in input order.
std::vector<std::size_t> dispatch_order(std::span<const SweepJob> jobs);

/// Runs every job over `threads` workers (0 = hardware concurrency), in
/// dispatch_order; results are returned in `jobs` order. Jobs with the same
/// TopoParams share one immutable topology. Exceptions from worker runs are
/// rethrown on the calling thread once every worker has stopped; a job whose
/// topology or placement cannot be built fails the call before any job runs.
std::vector<ExperimentResult> run_jobs(std::span<const SweepJob> jobs, int threads = 0);

/// Runs `workload` under every config with the same options: run_jobs over
/// one job per config. Results are returned in `configs` order.
std::vector<ExperimentResult> run_matrix(const Workload& workload,
                                         const std::vector<ExperimentConfig>& configs,
                                         const ExperimentOptions& options, int threads = 0);

}  // namespace dfly
