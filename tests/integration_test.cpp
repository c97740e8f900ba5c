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
  const InterferenceResult result = run_interference(w, configs, options, spec, 2);
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
  const InterferenceResult result = run_interference(w, configs, options, spec, 1);
  EXPECT_EQ(result.peak_background_load, 0);
  EXPECT_EQ(result.with_background[0].metrics.comm_time_ms,
            result.baseline[0].metrics.comm_time_ms);
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
