#include "core/interference.hpp"

#include "core/run_matrix.hpp"

namespace dfly {

Table InterferenceResult::degradation_table(const std::string& title) const {
  Table t(title);
  t.set_columns({"config", "median comm (ms)", "median no-bg (ms)", "degradation (%)",
                 "max comm (ms)", "max no-bg (ms)"});
  for (std::size_t i = 0; i < with_background.size(); ++i) {
    const RunMetrics& bg = with_background[i].metrics;
    const RunMetrics& base = baseline[i].metrics;
    const double med_bg = bg.median_comm_ms();
    const double med_base = base.median_comm_ms();
    const double degradation = med_base > 0 ? 100.0 * (med_bg - med_base) / med_base : 0.0;
    t.add_row({with_background[i].config, Table::num(med_bg, 3), Table::num(med_base, 3),
               Table::num(degradation, 1), Table::num(bg.max_comm_ms(), 3),
               Table::num(base.max_comm_ms(), 3)});
  }
  return t;
}

InterferenceResult run_interference(const Workload& workload,
                                    const std::vector<ExperimentConfig>& configs,
                                    const ExperimentOptions& options, const BackgroundSpec& spec,
                                    int threads) {
  // One pool: every config with the background job, then every config
  // without it.
  ExperimentOptions with_bg = options;
  with_bg.background = spec;
  ExperimentOptions without_bg = options;
  without_bg.background.reset();
  std::vector<SweepJob> jobs;
  jobs.reserve(2 * configs.size());
  for (const ExperimentOptions* o : {&with_bg, &without_bg})
    for (const ExperimentConfig& config : configs) jobs.push_back({&workload, config, *o});
  const std::vector<ExperimentResult> runs = run_jobs(jobs, threads);

  InterferenceResult result;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ExperimentResult& bg = runs[i];
    const ExperimentResult& base = runs[configs.size() + i];
    result.with_background.push_back(NamedMetrics{bg.config, bg.metrics});
    result.baseline.push_back(NamedMetrics{base.config, base.metrics});
  }
  // The app can occupy every node (ranks == total_nodes); the subtraction
  // must not underflow in size_t and report a near-2^64 background job.
  const int total_nodes = options.topo.total_nodes();
  const int ranks = workload.trace.ranks();
  const std::size_t bg_nodes =
      ranks < total_nodes ? static_cast<std::size_t>(total_nodes - ranks) : 0;
  result.peak_background_load = spec.peak_load(bg_nodes);
  return result;
}

}  // namespace dfly
