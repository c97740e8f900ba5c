// Automated verification of the paper's key findings (§IV-A/B/C bullet
// lists): runs reduced-scale versions of the experiments and prints a
// PASS/FAIL verdict per finding. This is the one binary to run to confirm
// the reproduction holds on a new machine or after model changes.
//
// Exit code is the number of failed findings.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_interference.hpp"
#include "core/run_matrix.hpp"
#include "util/stats.hpp"

namespace {

using namespace dfly;

struct Verdict {
  std::string finding;
  bool pass;
  std::string evidence;
};

double median_of(const std::vector<ExperimentResult>& results, const std::string& config) {
  for (const ExperimentResult& r : results)
    if (r.config == config) return r.metrics.median_comm_ms();
  return -1;
}

double hops_of(const std::vector<ExperimentResult>& results, const std::string& config) {
  for (const ExperimentResult& r : results)
    if (r.config == config) return percentile(r.metrics.avg_hops, 50);
  return -1;
}

std::string ratio_evidence(const char* a, double va, const char* b, double vb) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s=%.3f ms vs %s=%.3f ms", a, va, b, vb);
  return buf;
}

}  // namespace

int main() {
  using namespace dfly;
  const double scale = env_scale(0.25);
  const std::uint64_t seed = env_seed(42);
  print_bench_header("Findings check", "automated verification of the paper's key findings",
                     scale, seed);
  const int threads = bench::bench_threads();

  ExperimentOptions options;
  options.seed = seed;

  std::vector<Verdict> verdicts;

  // The five sweeps of §IV-A/B (Table I on CR, FB and AMG; the extremes on
  // light and heavy AMG) and the three §IV-C jobs (CR under bursty
  // background) run as one pool, longest job first. The §IV-C degradations
  // compare against the CR Table I sweep's runs of the same configs.
  const Workload cr = bench::cr_workload(scale);
  const Workload fb = bench::fb_workload(scale);
  const Workload amg = bench::amg_workload(scale);
  const Workload amg_light = bench::amg_workload(scale * 0.5);
  const Workload amg_heavy = bench::amg_workload(scale * 20);
  const std::pair<const Workload*, std::vector<ExperimentConfig>> sweeps[] = {
      {&cr, table1_configs()},        {&fb, table1_configs()},
      {&amg, table1_configs()},       {&amg_light, extreme_configs()},
      {&amg_heavy, extreme_configs()}};
  const std::vector<ExperimentConfig> interference_configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal},
      {PlacementKind::RandomCabinet, RoutingKind::Minimal},
      {PlacementKind::RandomNode, RoutingKind::Adaptive}};
  ExperimentOptions bursty = options;
  bursty.background =
      bench::bursty_background(100 * units::kKB, 8, 100 * units::kMicrosecond, scale);
  std::vector<SweepJob> jobs;
  for (const auto& [workload, configs] : sweeps)
    for (const ExperimentConfig& config : configs) jobs.push_back({workload, config, options});
  for (const ExperimentConfig& config : interference_configs) jobs.push_back({&cr, config, bursty});
  const std::vector<ExperimentResult> runs = run_jobs(jobs, threads);
  std::vector<std::vector<ExperimentResult>> sweep_results;  // per sweep, in its configs' order
  for (auto next = runs.begin(); const auto& sweep : sweeps) {
    const auto end = next + static_cast<std::ptrdiff_t>(sweep.second.size());
    sweep_results.emplace_back(next, end);
    next = end;
  }

  // --- §IV-A: application study -------------------------------------------
  {
    const auto& results = sweep_results[0];
    const double cont = median_of(results, "cont-min");
    const double rand = median_of(results, "rand-min");
    verdicts.push_back({"CR benefits from balanced traffic (rand-min < cont-min)", rand < cont,
                        ratio_evidence("rand-min", rand, "cont-min", cont)});
    verdicts.push_back(
        {"localized communication reduces hops (cont-min hops < rand-min hops)",
         hops_of(results, "cont-min") < hops_of(results, "rand-min"),
         "hops " + Table::num(hops_of(results, "cont-min"), 2) + " vs " +
             Table::num(hops_of(results, "rand-min"), 2)});
  }
  {
    const auto& results = sweep_results[1];
    const double best = median_of(results, "rand-adp");
    bool is_best = true;
    for (const ExperimentResult& r : results)
      if (r.metrics.median_comm_ms() < best) is_best = false;
    verdicts.push_back({"FB best at rand-adp", is_best,
                        ratio_evidence("rand-adp", best, "cont-min",
                                       median_of(results, "cont-min"))});
  }
  {
    const auto& results = sweep_results[2];
    const double cont_adp = median_of(results, "cont-adp");
    const double rand_adp = median_of(results, "rand-adp");
    const double rotr_adp = median_of(results, "rotr-adp");
    verdicts.push_back({"AMG benefits from localized communication (cont-adp <= rand-adp)",
                        cont_adp <= rand_adp,
                        ratio_evidence("cont-adp", cont_adp, "rand-adp", rand_adp)});
    verdicts.push_back({"AMG: scattering routers hurts (cont-adp < rotr-adp)",
                        cont_adp < rotr_adp,
                        ratio_evidence("cont-adp", cont_adp, "rotr-adp", rotr_adp)});
  }

  // --- §IV-B: sensitivity ---------------------------------------------------
  {
    const auto& light = sweep_results[3];
    const auto& heavy = sweep_results[4];
    verdicts.push_back({"AMG prefers contiguous at low intensity",
                        median_of(light, "cont-adp") <= median_of(light, "rand-adp"),
                        ratio_evidence("cont-adp", median_of(light, "cont-adp"), "rand-adp",
                                       median_of(light, "rand-adp"))});
    verdicts.push_back({"AMG prefers balanced traffic at high intensity",
                        median_of(heavy, "rand-adp") < median_of(heavy, "cont-adp"),
                        ratio_evidence("rand-adp", median_of(heavy, "rand-adp"), "cont-adp",
                                       median_of(heavy, "cont-adp"))});
  }

  // --- §IV-C: external interference ----------------------------------------
  {
    auto degradation = [&](std::size_t i) {
      const ExperimentResult& bg = runs[runs.size() - interference_configs.size() + i];
      const double base = median_of(sweep_results[0], bg.config);
      return base > 0 ? (bg.metrics.median_comm_ms() - base) / base * 100.0 : 0.0;
    };
    verdicts.push_back(
        {"bursty background degrades balanced configs (rand-adp > 5%)", degradation(2) > 5.0,
         "rand-adp degradation " + Table::num(degradation(2), 1) + "%"});
    verdicts.push_back(
        {"localized communication isolates against interference (cont-min < rand-adp degr.)",
         degradation(0) < degradation(2),
         "cont-min " + Table::num(degradation(0), 1) + "% vs rand-adp " +
             Table::num(degradation(2), 1) + "%"});
  }

  Table t("Key-findings verification");
  t.set_columns({"finding", "verdict", "evidence"});
  int failures = 0;
  for (const Verdict& v : verdicts) {
    t.add_row({v.finding, v.pass ? "PASS" : "FAIL", v.evidence});
    if (!v.pass) ++failures;
  }
  t.print_markdown(std::cout);
  std::printf("%d/%zu findings reproduced\n", static_cast<int>(verdicts.size()) - failures,
              verdicts.size());
  return failures;
}
