#include "core/sensitivity.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/run_matrix.hpp"

namespace dfly {

Table SensitivityResult::to_table(const std::string& title) const {
  // Rows = scales, columns = configs (matching Fig. 7's x-axis and series).
  std::vector<double> scales;
  std::vector<std::string> configs;
  for (const SensitivityPoint& p : points) {
    if (scales.empty() || scales.back() != p.scale) scales.push_back(p.scale);
    if (std::find(configs.begin(), configs.end(), p.config) == configs.end())
      configs.push_back(p.config);
  }
  Table t(title);
  std::vector<std::string> headers = {"msg scale"};
  for (const auto& c : configs) headers.push_back(c + " (% of rand-adp)");
  t.set_columns(std::move(headers));
  for (const double s : scales) {
    std::vector<std::string> row = {Table::num(s, 2)};
    for (const auto& c : configs) {
      const auto it = std::find_if(points.begin(), points.end(), [&](const SensitivityPoint& p) {
        return p.scale == s && p.config == c;
      });
      row.push_back(it == points.end() ? "-" : Table::num(it->relative_to_baseline_pct, 1));
    }
    t.add_row(std::move(row));
  }
  return t;
}

SensitivityResult run_sensitivity(const std::function<Workload(double)>& make_workload,
                                  const std::vector<double>& scales,
                                  const std::vector<ExperimentConfig>& configs,
                                  const ExperimentOptions& options, int threads) {
  const ExperimentConfig baseline{PlacementKind::RandomNode, RoutingKind::Adaptive};
  std::vector<ExperimentConfig> all = configs;
  if (std::none_of(all.begin(), all.end(), [&](const ExperimentConfig& c) {
        return c.name() == baseline.name();
      }))
    all.push_back(baseline);

  // Every (scale, config) job goes into one pool; the results come back
  // scale-major, in `all` order within a scale.
  std::vector<Workload> workloads;
  workloads.reserve(scales.size());
  for (const double scale : scales) workloads.push_back(make_workload(scale));
  // The workloads are already scaled: a caller's msg_scale must not scale
  // them again.
  ExperimentOptions job_options = options;
  job_options.msg_scale = 1.0;
  std::vector<SweepJob> jobs;
  jobs.reserve(scales.size() * all.size());
  for (const Workload& workload : workloads)
    for (const ExperimentConfig& config : all) jobs.push_back({&workload, config, job_options});
  const std::vector<ExperimentResult> runs = run_jobs(jobs, threads);

  SensitivityResult result;
  for (std::size_t s = 0; s < scales.size(); ++s) {
    const ExperimentResult* const at_scale = runs.data() + s * all.size();
    double baseline_max = 0;
    for (std::size_t i = 0; i < all.size(); ++i)
      if (all[i].name() == baseline.name()) baseline_max = at_scale[i].metrics.max_comm_ms();
    if (baseline_max <= 0) throw std::runtime_error("sensitivity: baseline produced no time");
    for (std::size_t i = 0; i < all.size(); ++i) {
      const double max_ms = at_scale[i].metrics.max_comm_ms();
      result.points.push_back(
          SensitivityPoint{scales[s], all[i].name(), max_ms, 100.0 * max_ms / baseline_max});
    }
  }
  return result;
}

}  // namespace dfly
