// Integration tests: whole-pipeline experiments across the full placement x
// routing matrix, determinism, and the interference/sensitivity drivers.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/interference.hpp"
#include "core/run_matrix.hpp"
#include "core/sensitivity.hpp"
#include "util/stats.hpp"
#include "workload/synthetic.hpp"

namespace dfly {
namespace {

/// A light, fast workload: 48 ranks exchanging 32 KiB around a ring twice.
Workload small_workload() {
  return Workload{"ring", make_ring_trace(48, 32 * units::kKiB, 2)};
}

ExperimentOptions tiny_options() {
  ExperimentOptions options;
  options.topo = TopoParams::tiny();
  options.seed = 7;
  options.max_events = 200'000'000;
  return options;
}

class MatrixProperty : public ::testing::TestWithParam<ExperimentConfig> {};

TEST_P(MatrixProperty, EveryConfigCompletesWithoutDeadlock) {
  const ExperimentResult result = run_experiment(small_workload(), GetParam(), tiny_options());
  EXPECT_FALSE(result.hit_event_limit);
  EXPECT_EQ(result.metrics.comm_time_ms.size(), 48u);
  for (const double t : result.metrics.comm_time_ms) EXPECT_GT(t, 0.0);
  for (const double h : result.metrics.avg_hops) {
    EXPECT_GE(h, 1.0);
    EXPECT_LE(h, kMaxRouteHops);
  }
  EXPECT_GT(result.metrics.bytes_delivered, 0);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, MatrixProperty, ::testing::ValuesIn(table1_configs()),
                         [](const auto& pinfo) {
                           std::string name = pinfo.param.name();
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

TEST(Experiment, DeterministicForSameSeed) {
  const ExperimentConfig config{PlacementKind::RandomNode, RoutingKind::Adaptive};
  const ExperimentResult a = run_experiment(small_workload(), config, tiny_options());
  const ExperimentResult b = run_experiment(small_workload(), config, tiny_options());
  EXPECT_EQ(a.metrics.comm_time_ms, b.metrics.comm_time_ms);
  EXPECT_EQ(a.metrics.avg_hops, b.metrics.avg_hops);
  EXPECT_EQ(a.metrics.events, b.metrics.events);
  EXPECT_EQ(a.metrics.local_traffic_mb, b.metrics.local_traffic_mb);
}

TEST(Experiment, DifferentSeedsChangeRandomPlacements) {
  const ExperimentConfig config{PlacementKind::RandomNode, RoutingKind::Minimal};
  ExperimentOptions a = tiny_options(), b = tiny_options();
  b.seed = 1234;
  const ExperimentResult ra = run_experiment(small_workload(), config, a);
  const ExperimentResult rb = run_experiment(small_workload(), config, b);
  EXPECT_NE(ra.metrics.comm_time_ms, rb.metrics.comm_time_ms);
}

TEST(Experiment, PlacementSharedAcrossRoutings) {
  // Same seed + placement kind must pick the same node set for min and adp:
  // average hops under minimal routing are then comparable. We check via
  // serving-channel sample counts, which depend only on the node set.
  const Workload w = small_workload();
  const ExperimentOptions options = tiny_options();
  const ExperimentResult min = run_experiment(
      w, ExperimentConfig{PlacementKind::RandomNode, RoutingKind::Minimal}, options);
  const ExperimentResult adp = run_experiment(
      w, ExperimentConfig{PlacementKind::RandomNode, RoutingKind::Adaptive}, options);
  EXPECT_EQ(min.metrics.local_traffic_mb.size(), adp.metrics.local_traffic_mb.size());
}

TEST(Experiment, ContiguousHasFewerHopsThanRandomNode) {
  // The paper's core locality observation, on the tiny system.
  const Workload w = small_workload();
  const ExperimentOptions options = tiny_options();
  const ExperimentResult cont = run_experiment(
      w, ExperimentConfig{PlacementKind::Contiguous, RoutingKind::Minimal}, options);
  const ExperimentResult rand = run_experiment(
      w, ExperimentConfig{PlacementKind::RandomNode, RoutingKind::Minimal}, options);
  const double cont_hops =
      percentile(cont.metrics.avg_hops, 50.0);
  const double rand_hops = percentile(rand.metrics.avg_hops, 50.0);
  EXPECT_LT(cont_hops, rand_hops);
}

TEST(Experiment, AdaptiveNeverShorterThanMinimalHops) {
  const Workload w = small_workload();
  const ExperimentOptions options = tiny_options();
  const ExperimentResult min = run_experiment(
      w, ExperimentConfig{PlacementKind::Contiguous, RoutingKind::Minimal}, options);
  const ExperimentResult adp = run_experiment(
      w, ExperimentConfig{PlacementKind::Contiguous, RoutingKind::Adaptive}, options);
  EXPECT_LE(percentile(min.metrics.avg_hops, 50.0), percentile(adp.metrics.avg_hops, 50.0) + 1e-9);
}

TEST(Experiment, NonzeroEngineThreadsIsRejected) {
  // The engine is serial; sweep parallelism is run_matrix's thread count.
  const ExperimentConfig config;
  for (const int threads : {1, 4, -1}) {
    ExperimentOptions options = tiny_options();
    options.threads = threads;
    EXPECT_THROW(run_experiment(small_workload(), config, options), std::invalid_argument)
        << "threads=" << threads;
  }
}

TEST(Experiment, ActiveCheckpointShimIsRejected) {
  // Sweeps have no resume; a set marker path or resume flag must fail, not
  // run without markers.
  const ExperimentConfig config;
  ExperimentOptions path = tiny_options();
  path.checkpoint.path = "sweep-markers";
  EXPECT_THROW(run_experiment(small_workload(), config, path), std::invalid_argument);
  ExperimentOptions resume = tiny_options();
  resume.checkpoint.resume = true;
  EXPECT_THROW(run_experiment(small_workload(), config, resume), std::invalid_argument);
}

TEST(Experiment, MsgScaleIncreasesCommTime) {
  const Workload w = small_workload();
  ExperimentOptions options = tiny_options();
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};
  const ExperimentResult base = run_experiment(w, config, options);
  options.msg_scale = 4.0;
  const ExperimentResult scaled = run_experiment(w, config, options);
  EXPECT_GT(scaled.metrics.makespan_ms, base.metrics.makespan_ms);
}

TEST(Experiment, TableIConfigsAreTheTenOfThePaper) {
  const auto configs = table1_configs();
  ASSERT_EQ(configs.size(), 10u);
  EXPECT_EQ(configs[0].name(), "cont-min");
  EXPECT_EQ(configs[4].name(), "rand-min");
  EXPECT_EQ(configs[5].name(), "cont-adp");
  EXPECT_EQ(configs[9].name(), "rand-adp");
  const auto extremes = extreme_configs();
  ASSERT_EQ(extremes.size(), 4u);
}

TEST(RunMatrix, ParallelMatchesSequential) {
  const Workload w = small_workload();
  const auto configs = table1_configs();
  const ExperimentOptions options = tiny_options();
  const auto seq = run_matrix(w, configs, options, 1);
  const auto par = run_matrix(w, configs, options, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].config, par[i].config);
    EXPECT_EQ(seq[i].metrics.comm_time_ms, par[i].metrics.comm_time_ms)
        << "thread count must not affect results (" << seq[i].config << ")";
  }
}

TEST(RunMatrix, DispatchOrderFollowsPredictedWork) {
  CrParams params;
  params.iterations = 1;
  params.scale = 0.25;
  const Workload cr = make_crystal_router(params);
  const ExperimentOptions theta;
  const std::vector<ExperimentConfig> configs = table1_configs();
  std::vector<SweepJob> jobs;
  for (const ExperimentConfig& config : configs) jobs.push_back({&cr, config, theta});
  // Reverse Table I: rand-adp ... cont-adp, then rand-min ... cont-min.
  const std::vector<std::size_t> order = dispatch_order(jobs);
  ASSERT_EQ(order.size(), configs.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    EXPECT_EQ(configs[order[k]].name(), configs[configs.size() - 1 - k].name()) << "slot " << k;

  // A copy of rand-adp ties with it and keeps its input place; a background
  // job, however small, starts before every job without one.
  jobs.push_back(jobs[9]);
  const Workload ring{"ring", make_ring_trace(16, 1024, 1)};
  ExperimentOptions with_bg = theta;
  with_bg.background = BackgroundSpec{};
  jobs.push_back({&ring, {PlacementKind::Contiguous, RoutingKind::Minimal}, with_bg});
  EXPECT_LT(predicted_work(jobs.back()).work, predicted_work(jobs[0]).work);
  EXPECT_GT(predicted_work(jobs.back()), predicted_work(jobs[9]));
  const std::vector<std::size_t> mixed = dispatch_order(jobs);
  const std::vector<std::size_t> expected = {11, 9, 10, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  EXPECT_EQ(mixed, expected);
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.metrics.comm_time_ms, b.metrics.comm_time_ms);
  EXPECT_EQ(a.metrics.avg_hops, b.metrics.avg_hops);
  EXPECT_EQ(a.metrics.local_traffic_mb, b.metrics.local_traffic_mb);
  EXPECT_EQ(a.metrics.global_traffic_mb, b.metrics.global_traffic_mb);
  EXPECT_EQ(a.metrics.local_saturation_ms, b.metrics.local_saturation_ms);
  EXPECT_EQ(a.metrics.global_saturation_ms, b.metrics.global_saturation_ms);
  EXPECT_EQ(a.metrics.makespan_ms, b.metrics.makespan_ms);
  EXPECT_EQ(a.metrics.events, b.metrics.events);
  EXPECT_EQ(a.metrics.chunks, b.metrics.chunks);
  EXPECT_EQ(a.metrics.bytes_delivered, b.metrics.bytes_delivered);
  EXPECT_EQ(a.metrics.scheduler.peak_pending, b.metrics.scheduler.peak_pending);
  EXPECT_EQ(a.metrics.scheduler.overflow_promotions, b.metrics.scheduler.overflow_promotions);
  EXPECT_EQ(a.background_bytes, b.background_bytes);
  EXPECT_EQ(a.hit_event_limit, b.hit_event_limit);
  EXPECT_EQ(a.stalled, b.stalled);
  EXPECT_EQ(a.conservation_ok, b.conservation_ok);
  EXPECT_EQ(a.health_report, b.health_report);
}

TEST(RunMatrix, MixedJobPoolMatchesRunExperiment) {
  // Two workloads, two seeds and one background job, listed out of dispatch
  // order: whatever order the pool runs them in, each result lands in its
  // job's slot and equals a direct run of that job.
  const Workload ring32{"ring32", make_ring_trace(32, 32 * units::kKiB, 2)};
  const Workload ring24{"ring24", make_ring_trace(24, 8 * units::kKiB, 3)};
  ExperimentOptions seed7 = tiny_options();
  ExperimentOptions seed11 = tiny_options();
  seed11.seed = 11;
  ExperimentOptions with_bg = seed7;
  BackgroundSpec spec;
  spec.message_bytes = 16 * units::kKiB;
  spec.interval = 5 * units::kMicrosecond;
  with_bg.background = spec;
  const ExperimentConfig cont_min{PlacementKind::Contiguous, RoutingKind::Minimal};
  const ExperimentConfig rand_adp{PlacementKind::RandomNode, RoutingKind::Adaptive};
  const ExperimentConfig chas_val{PlacementKind::RandomChassis, RoutingKind::Valiant};
  const std::vector<SweepJob> jobs = {
      {&ring24, cont_min, seed11}, {&ring32, rand_adp, seed7},  {&ring24, chas_val, seed7},
      {&ring32, cont_min, seed11}, {&ring24, rand_adp, seed11}, {&ring32, chas_val, seed11},
      {&ring32, cont_min, seed7},  {&ring32, rand_adp, with_bg}};
  std::vector<std::size_t> identity(jobs.size());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  ASSERT_NE(dispatch_order(jobs), identity) << "the list must be shuffled against the key";

  std::vector<ExperimentResult> direct;
  for (const SweepJob& job : jobs)
    direct.push_back(run_experiment(*job.workload, job.config, job.options));
  EXPECT_GT(direct.back().background_bytes, 0);
  for (const int threads : {1, 4}) {
    const std::vector<ExperimentResult> pooled = run_jobs(jobs, threads);
    ASSERT_EQ(pooled.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", job " + std::to_string(i));
      expect_same_result(pooled[i], direct[i]);
    }
  }
}

TEST(Interference, BackgroundTrafficSlowsTheTargetApp) {
  // 32 of the tiny system's 48 nodes run the app; 16 host the background job.
  const Workload w{"ring", make_ring_trace(32, 32 * units::kKiB, 2)};
  ExperimentOptions options = tiny_options();
  BackgroundSpec spec;
  spec.pattern = BackgroundSpec::Pattern::UniformRandom;
  spec.message_bytes = 64 * units::kKiB;
  spec.interval = 2 * units::kMicrosecond;
  const std::vector<ExperimentConfig> configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal},
      {PlacementKind::RandomNode, RoutingKind::Adaptive}};
  const InterferenceResult result = run_interference(w, configs, options, {spec}, 2).front();
  ASSERT_EQ(result.with_background.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE(result.with_background[i].metrics.median_comm_ms(),
              result.baseline[i].metrics.median_comm_ms())
        << result.with_background[i].config;
  }
  EXPECT_GT(result.peak_background_load, 0);
  const Table t = result.degradation_table("test");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Interference, FullMachineAppLeavesZeroBackgroundNodes) {
  // Regression: with ranks == total_nodes the background node count
  // (total - ranks) underflowed size_t and reported a ~2^64-node job.
  const Workload w{"ring", make_ring_trace(48, 8 * units::kKiB, 1)};
  ExperimentOptions options = tiny_options();
  BackgroundSpec spec;
  spec.message_bytes = 64 * units::kKiB;
  const std::vector<ExperimentConfig> configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal}};
  const InterferenceResult result = run_interference(w, configs, options, {spec}, 1).front();
  EXPECT_EQ(result.peak_background_load, 0);
  EXPECT_EQ(result.with_background[0].metrics.comm_time_ms,
            result.baseline[0].metrics.comm_time_ms);
}

TEST(Interference, SpecsShareOneBaseline) {
  // A two-spec call runs one no-background baseline for both specs; each
  // spec's result must match a one-spec call, and the baseline a plain
  // run_matrix.
  const Workload w{"ring", make_ring_trace(32, 32 * units::kKiB, 2)};
  const ExperimentOptions options = tiny_options();
  BackgroundSpec uniform;
  uniform.pattern = BackgroundSpec::Pattern::UniformRandom;
  uniform.message_bytes = 64 * units::kKiB;
  uniform.interval = 2 * units::kMicrosecond;
  BackgroundSpec bursty;
  bursty.pattern = BackgroundSpec::Pattern::Bursty;
  bursty.message_bytes = 16 * units::kKiB;
  bursty.burst_fanout = 4;
  bursty.interval = 5 * units::kMicrosecond;
  const std::vector<ExperimentConfig> configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal},
      {PlacementKind::RandomNode, RoutingKind::Adaptive}};

  const std::vector<InterferenceResult> both =
      run_interference(w, configs, options, {uniform, bursty}, 2);
  ASSERT_EQ(both.size(), 2u);
  const std::vector<ExperimentResult> plain = run_matrix(w, configs, options, 2);
  const BackgroundSpec* specs[] = {&uniform, &bursty};
  for (std::size_t s = 0; s < 2; ++s) {
    const InterferenceResult single = run_interference(w, configs, options, {*specs[s]}, 2).front();
    EXPECT_EQ(both[s].peak_background_load, single.peak_background_load);
    ASSERT_EQ(both[s].with_background.size(), configs.size());
    ASSERT_EQ(both[s].baseline.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      SCOPED_TRACE("spec " + std::to_string(s) + ", config " + std::to_string(i));
      for (const auto& [got, want] :
           {std::pair{&both[s].with_background[i], &single.with_background[i]},
            std::pair{&both[s].baseline[i], &single.baseline[i]}}) {
        EXPECT_EQ(got->config, want->config);
        EXPECT_EQ(got->metrics.comm_time_ms, want->metrics.comm_time_ms);
        EXPECT_EQ(got->metrics.local_traffic_mb, want->metrics.local_traffic_mb);
        EXPECT_EQ(got->metrics.global_traffic_mb, want->metrics.global_traffic_mb);
      }
      const NamedMetrics& base = both[s].baseline[i];
      EXPECT_EQ(base.config, plain[i].config);
      EXPECT_EQ(base.metrics.comm_time_ms, plain[i].metrics.comm_time_ms);
      EXPECT_EQ(base.metrics.local_traffic_mb, plain[i].metrics.local_traffic_mb);
      EXPECT_EQ(base.metrics.global_traffic_mb, plain[i].metrics.global_traffic_mb);
    }
  }
  // The two specs load the network differently.
  EXPECT_NE(both[0].with_background[1].metrics.comm_time_ms,
            both[1].with_background[1].metrics.comm_time_ms);
}

TEST(Sensitivity, RelativeValuesAnchorAtBaseline) {
  ExperimentOptions options = tiny_options();
  auto make = [](double scale) {
    Trace t = make_ring_trace(32, 64 * units::kKiB, 1);
    t.scale_message_sizes(scale);
    return Workload{"ring", std::move(t)};
  };
  const SensitivityResult result =
      run_sensitivity(make, {0.5, 1.0}, extreme_configs(), options, 2);
  // 2 scales x 4 configs (rand-adp already among the extremes).
  EXPECT_EQ(result.points.size(), 8u);
  for (const SensitivityPoint& p : result.points) {
    EXPECT_GT(p.max_comm_ms, 0.0);
    if (p.config == "rand-adp") {
      EXPECT_DOUBLE_EQ(p.relative_to_baseline_pct, 100.0);
    }
  }
  const Table t = result.to_table("test");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Sensitivity, CallerMsgScaleDoesNotRescaleTheWorkload) {
  // make_workload(scale) already scales the trace; options.msg_scale must
  // not scale it a second time.
  auto make = [](double scale) {
    Trace t = make_ring_trace(32, 64 * units::kKiB, 1);
    t.scale_message_sizes(scale);
    return Workload{"ring", std::move(t)};
  };
  const std::vector<ExperimentConfig> configs = {
      ExperimentConfig{PlacementKind::Contiguous, RoutingKind::Minimal}};
  ExperimentOptions unit = tiny_options();
  ExperimentOptions halved = tiny_options();
  halved.msg_scale = 0.5;
  const SensitivityResult a = run_sensitivity(make, {0.5}, configs, unit, 2);
  const SensitivityResult b = run_sensitivity(make, {0.5}, configs, halved, 2);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].config, b.points[i].config);
    EXPECT_EQ(a.points[i].max_comm_ms, b.points[i].max_comm_ms) << a.points[i].config;
  }
}

TEST(Experiment, EventLimitSurfacesAsFlag) {
  ExperimentOptions options = tiny_options();
  options.max_events = 1000;  // far too few to finish
  const ExperimentResult result = run_experiment(
      small_workload(), ExperimentConfig{PlacementKind::Contiguous, RoutingKind::Minimal},
      options);
  EXPECT_TRUE(result.hit_event_limit);
}

}  // namespace
}  // namespace dfly
