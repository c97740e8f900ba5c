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

std::vector<InterferenceResult> run_interference(const Workload& workload,
                                                 const std::vector<ExperimentConfig>& configs,
                                                 const ExperimentOptions& options,
                                                 const std::vector<BackgroundSpec>& specs,
                                                 int threads) {
  // One pool: every config under each spec in turn, then every config
  // without background.
  std::vector<ExperimentOptions> slices(specs.size() + 1, options);
  for (std::size_t s = 0; s < specs.size(); ++s) slices[s].background = specs[s];
  slices.back().background.reset();
  std::vector<SweepJob> jobs;
  jobs.reserve(slices.size() * configs.size());
  for (const ExperimentOptions& o : slices)
    for (const ExperimentConfig& config : configs) jobs.push_back({&workload, config, o});
  const std::vector<ExperimentResult> runs = run_jobs(jobs, threads);

  // The app can occupy every node (ranks == total_nodes); the subtraction
  // must not underflow in size_t and report a near-2^64 background job.
  const int total_nodes = options.topo.total_nodes();
  const int ranks = workload.trace.ranks();
  const std::size_t bg_nodes =
      ranks < total_nodes ? static_cast<std::size_t>(total_nodes - ranks) : 0;
  const std::size_t baseline = specs.size() * configs.size();
  std::vector<InterferenceResult> results(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const ExperimentResult& bg = runs[s * configs.size() + i];
      const ExperimentResult& base = runs[baseline + i];
      results[s].with_background.push_back(NamedMetrics{bg.config, bg.metrics});
      results[s].baseline.push_back(NamedMetrics{base.config, base.metrics});
    }
    results[s].peak_background_load = specs[s].peak_load(bg_nodes);
  }
  return results;
}

}  // namespace dfly
