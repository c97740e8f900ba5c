// Tests for metric collection and report table assembly.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hpp"
#include "core/formatters.hpp"
#include "metrics/report.hpp"
#include "workload/synthetic.hpp"

namespace dfly {
namespace {

RunMetrics fake_metrics() {
  RunMetrics m;
  m.comm_time_ms = {1.0, 2.0, 3.0, 4.0, 5.0};
  m.avg_hops = {1, 2, 3, 4, 5};
  m.local_traffic_mb = {0, 10, 20};
  m.global_traffic_mb = {5, 15};
  m.local_saturation_ms = {0, 0, 1};
  m.global_saturation_ms = {0, 2};
  m.makespan_ms = 5.0;
  return m;
}

TEST(RunMetrics, MaxAndMedian) {
  const RunMetrics m = fake_metrics();
  EXPECT_DOUBLE_EQ(m.max_comm_ms(), 5.0);
  EXPECT_DOUBLE_EQ(m.median_comm_ms(), 3.0);
}

TEST(Report, BoxTableHasOneRowPerConfig) {
  const std::vector<NamedMetrics> runs = {{"cont-min", fake_metrics()},
                                          {"rand-adp", fake_metrics()}};
  const Table t = comm_time_box_table("fig3", runs);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 6u);
  std::ostringstream os;
  t.print_markdown(os);
  EXPECT_NE(os.str().find("cont-min"), std::string::npos);
}

TEST(Report, CdfTableQuantilesAreMonotone) {
  const std::vector<NamedMetrics> runs = {{"cfg", fake_metrics()}};
  const Table t =
      cdf_table("cdf", runs, standard_cdf_fractions(), select_local_traffic);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 1u + standard_cdf_fractions().size());
}

TEST(Report, SelectorsPickTheRightVectors) {
  const RunMetrics m = fake_metrics();
  EXPECT_EQ(&select_avg_hops(m), &m.avg_hops);
  EXPECT_EQ(&select_local_traffic(m), &m.local_traffic_mb);
  EXPECT_EQ(&select_global_traffic(m), &m.global_traffic_mb);
  EXPECT_EQ(&select_local_saturation(m), &m.local_saturation_ms);
  EXPECT_EQ(&select_global_saturation(m), &m.global_saturation_ms);
}

TEST(Report, SummaryTable) {
  const std::vector<NamedMetrics> runs = {{"cfg", fake_metrics()}};
  const Table t = summary_table("sum", runs);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(CollectMetrics, EndToEndPopulation) {
  // Run a real experiment and check population sizes: 8 ranks -> 8 comm
  // times/hops; channels = local+global ports of serving routers.
  Workload w{"ring", make_ring_trace(8, 16 * units::kKiB)};
  ExperimentOptions options;
  options.topo = TopoParams::tiny();
  const ExperimentResult result = run_experiment(
      w, ExperimentConfig{PlacementKind::Contiguous, RoutingKind::Minimal}, options);
  const RunMetrics& m = result.metrics;
  EXPECT_EQ(m.comm_time_ms.size(), 8u);
  EXPECT_EQ(m.avg_hops.size(), 8u);
  // Contiguous: 8 ranks over 2-node routers = 4 routers; each router in the
  // tiny config has (cols-1)+(rows-1)=4 local and 2 global channels.
  EXPECT_EQ(m.local_traffic_mb.size(), 4u * 4u);
  EXPECT_EQ(m.global_traffic_mb.size(), 4u * 2u);
  EXPECT_EQ(m.local_saturation_ms.size(), m.local_traffic_mb.size());
  // A pure intra-group contiguous ring must not touch global channels.
  for (const double g : m.global_traffic_mb) EXPECT_EQ(g, 0.0);
}

TEST(Formatters, TableIHasFiveRows) {
  const Table t = table1_nomenclature();
  EXPECT_EQ(t.rows(), 5u);
  std::ostringstream os;
  t.print_markdown(os);
  EXPECT_NE(os.str().find("rand-adp"), std::string::npos);
}

TEST(Formatters, EnvFallbacks) {
  unsetenv("DFLY_SCALE");
  unsetenv("DFLY_SEED");
  EXPECT_DOUBLE_EQ(env_scale(0.5), 0.5);
  EXPECT_EQ(env_seed(99), 99u);
  setenv("DFLY_SCALE", "0.125", 1);
  EXPECT_DOUBLE_EQ(env_scale(0.5), 0.125);
  setenv("DFLY_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(env_scale(0.5), 0.5);
  // The whole string must be one finite positive number: trailing text,
  // infinities and overflow to inf would reach the workload generators.
  for (const char* bad : {"0.25x", "inf", "1e400", "nan", "-1", "0", ""}) {
    setenv("DFLY_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(env_scale(0.5), 0.5) << '"' << bad << '"';
  }
  setenv("DFLY_SCALE", "2", 1);
  EXPECT_DOUBLE_EQ(env_scale(0.5), 2.0);
  unsetenv("DFLY_SCALE");
}

TEST(Formatters, EnvSeedAndThreadsParseAsIntegers) {
  // 2^53 + 1 has no double; a float parse would round it to 2^53.
  setenv("DFLY_SEED", "9007199254740993", 1);
  EXPECT_EQ(env_seed(99), 9007199254740993u);
  setenv("DFLY_SEED", "18446744073709551615", 1);
  EXPECT_EQ(env_seed(99), 18446744073709551615u);
  for (const char* bad : {"18446744073709551616", "seed", "12abc", "-1", " 7", "0", "1e3", ""}) {
    setenv("DFLY_SEED", bad, 1);
    EXPECT_EQ(env_seed(99), 99u) << '"' << bad << '"';
  }
  unsetenv("DFLY_SEED");

  unsetenv("DFLY_THREADS");
  EXPECT_EQ(env_threads(0), 0);
  setenv("DFLY_THREADS", "3", 1);
  EXPECT_EQ(env_threads(0), 3);
  setenv("DFLY_THREADS", "2147483647", 1);
  EXPECT_EQ(env_threads(0), 2147483647);
  // Parsing only: no run is started with any of these.
  for (const char* bad : {"3e9", "2147483648", "3000000000", "four", "-2", "0", "2.5"}) {
    setenv("DFLY_THREADS", bad, 1);
    EXPECT_EQ(env_threads(0), 0) << '"' << bad << '"';
  }
  unsetenv("DFLY_THREADS");
}

}  // namespace
}  // namespace dfly
