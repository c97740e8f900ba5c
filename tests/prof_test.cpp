// Profiler suite (DESIGN.md §11): the wall-clock attribution subsystem and
// its cardinal invariant — profiling must not perturb the simulation. The
// differential tests run the same experiment with [prof] off and on and
// require every existing artifact to stay byte-identical; prof.json is the
// one artifact allowed to carry wall-clock values. Plus unit coverage for the
// HDR-style histogram edge cases, the sim-vs-wall throughput tracker, the
// [prof] config section, and the sampled, exclusive layer accounting behind
// prof.json schema 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/run_matrix.hpp"
#include "prof/profiler.hpp"
#include "prof/wall_histogram.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace dfly {
namespace {

namespace fs = std::filesystem;
using prof::ThroughputTracker;
using prof::WallHistogram;

std::string temp_path(const std::string& name) { return ::testing::TempDir() + "/" + name; }

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// WallHistogram
// ---------------------------------------------------------------------------

TEST(WallHistogramTest, EmptyHistogramReportsZeros) {
  const WallHistogram h(3);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0);
  EXPECT_EQ(h.percentile(100.0), 0);
}

TEST(WallHistogramTest, RejectsOutOfRangeResolution) {
  EXPECT_THROW(WallHistogram(-1), std::invalid_argument);
  EXPECT_THROW(WallHistogram(9), std::invalid_argument);
  EXPECT_NO_THROW(WallHistogram(0));
  EXPECT_NO_THROW(WallHistogram(8));
}

TEST(WallHistogramTest, NegativeValuesClampToZero) {
  // A non-monotonic clock step must not corrupt the bucket index or the sums.
  WallHistogram h(3);
  h.add(-100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.percentile(50.0), 0);
}

TEST(WallHistogramTest, HugeValuesClampIntoTheTopBucket) {
  WallHistogram h(3);
  h.add(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::int64_t>::max());
  EXPECT_GT(h.percentile(100.0), 0);
  EXPECT_LE(h.percentile(100.0), h.max());
}

TEST(WallHistogramTest, PercentilesAreMonotonicAndBoundSamples) {
  WallHistogram h(3);
  for (std::int64_t v = 1; v <= 1000; ++v) h.add(v * 1000);
  EXPECT_EQ(h.count(), 1000u);
  const std::int64_t p50 = h.percentile(50.0);
  const std::int64_t p90 = h.percentile(90.0);
  const std::int64_t p99 = h.percentile(99.0);
  const std::int64_t p100 = h.percentile(100.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p100);
  // percentile() returns bucket lower bounds; bits=3 keeps relative error
  // under one octave.
  EXPECT_GE(p100, h.max() / 2);
  EXPECT_LE(p100, h.max());
  EXPECT_GE(p50, 1000);
  // Out-of-range p clamps instead of indexing out of bounds.
  EXPECT_EQ(h.percentile(-5.0), h.percentile(0.0));
  EXPECT_EQ(h.percentile(200.0), p100);
}

// ---------------------------------------------------------------------------
// ThroughputTracker (explicit wall clock — no sleeping in tests)
// ---------------------------------------------------------------------------

TEST(ThroughputTrackerTest, CumulativeRatesFromExplicitClock) {
  ThroughputTracker t;
  t.start_at(0, 0, 0, 0);
  t.sample_at(2'000'000'000, 4'000'000'000, 1000, 500);  // 2s wall, 4s sim
  EXPECT_EQ(t.samples(), 1u);
  EXPECT_EQ(t.wall_ns(), 2'000'000'000);
  const ThroughputTracker::Rates r = t.cumulative();
  EXPECT_DOUBLE_EQ(r.events_per_sec, 500.0);
  EXPECT_DOUBLE_EQ(r.chunks_per_sec, 250.0);
  EXPECT_DOUBLE_EQ(r.sim_per_wall, 2.0);
}

TEST(ThroughputTrackerTest, ZeroWallSpanYieldsZeroRates) {
  ThroughputTracker t;
  t.start_at(5, 0, 0, 0);
  t.sample_at(5, 1'000'000, 42, 7);
  EXPECT_DOUBLE_EQ(t.cumulative().events_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(t.cumulative().sim_per_wall, 0.0);
}

// ---------------------------------------------------------------------------
// [prof] config section
// ---------------------------------------------------------------------------

TEST(ProfConfig, RoundTripsThroughConfigText) {
  ExperimentOptions o;
  o.prof.enabled = true;
  const std::string text = render_config(o);
  EXPECT_NE(text.find("[prof]"), std::string::npos);
  EXPECT_EQ(text.find("hist_bucket_bits"), std::string::npos);
  std::istringstream is(text);
  const ExperimentOptions parsed = parse_config(is, ExperimentOptions{});
  EXPECT_TRUE(parsed.prof.enabled);
}

TEST(ProfConfig, RejectsBadValues) {
  // The histogram resolution is a constant now; the old key is unknown.
  std::istringstream bits("[prof]\nhist_bucket_bits = 3\n");
  try {
    parse_config(bits, ExperimentOptions{});
    ADD_FAILURE() << "hist_bucket_bits was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(contains(e.what(), "unknown key")) << e.what();
  }
  std::istringstream non_bool("[prof]\nenabled = 2\n");
  EXPECT_THROW(parse_config(non_bool, ExperimentOptions{}), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Sampled, exclusive accounting
// ---------------------------------------------------------------------------

constexpr std::uint32_t kStride = prof::Profiler::kStride;

TEST(ProfSampling, CountdownTimesEveryStrideThDispatch) {
  prof::Profiler p(prof::ProfOptions{});
  std::vector<std::uint64_t> timed;
  for (std::uint64_t i = 1; i <= 3 * kStride + 5; ++i) {
    if (p.sample_next()) {
      timed.push_back(i);
      p.record_sample(prof::Layer::Network, 0, 0);
    } else {
      p.count_untimed();
    }
    EXPECT_EQ(p.events(), i);
  }
  EXPECT_EQ(timed, (std::vector<std::uint64_t>{kStride, 2 * kStride, 3 * kStride}));
  EXPECT_EQ(p.sampled_events(), 3u);
}

TEST(ProfSampling, ExclusiveLayersTakeOutClockCostAndNestedScopes) {
  prof::Profiler p(prof::ProfOptions{});
  const std::int64_t r = p.clock_read_ns();
  for (std::uint32_t i = 0; i + 1 < kStride; ++i) p.count_untimed();
  ASSERT_TRUE(p.sample_next());
  // A network dispatch of 1000 ns with a 300 ns routing scope inside: each
  // raw interval spans one read of overhead, and the nested scope's two
  // reads both land inside the dispatch interval.
  p.record_nested(prof::Layer::Routing, 300 + r);
  p.record_sample(prof::Layer::Network, 100 + r, 1000 + 3 * r);
  EXPECT_EQ(p.layer_timed_ns(prof::Layer::Scheduler), 100);
  EXPECT_EQ(p.layer_timed_ns(prof::Layer::Routing), 300);
  EXPECT_EQ(p.layer_timed_ns(prof::Layer::Network), 700);
  EXPECT_EQ(p.layer_sampled(prof::Layer::Network), 1u);
  EXPECT_EQ(p.layer_sampled(prof::Layer::Routing), 0u);
  EXPECT_EQ(p.dispatch_histogram().count(), 1u);
  EXPECT_EQ(p.dispatch_histogram().sum(), 1000 + 2 * r);
  // The next sample starts with no nested time left over.
  for (std::uint32_t i = 0; i + 1 < kStride; ++i) p.count_untimed();
  p.record_sample(prof::Layer::Replay, r, 900 + r);
  EXPECT_EQ(p.layer_timed_ns(prof::Layer::Replay), 900);
  EXPECT_EQ(p.layer_timed_ns(prof::Layer::Scheduler), 100);
  EXPECT_EQ(p.timed_ns(), 2000);

  // The estimates split the measured loop time by those shares.
  EXPECT_EQ(p.layer_est_ns(prof::Layer::Network), 0) << "no loop time yet";
  p.add_loop(1'000'000);
  EXPECT_EQ(p.layer_est_ns(prof::Layer::Scheduler), 50'000);
  EXPECT_EQ(p.layer_est_ns(prof::Layer::Network), 350'000);
  EXPECT_EQ(p.layer_est_ns(prof::Layer::Routing), 150'000);
  EXPECT_EQ(p.layer_est_ns(prof::Layer::Replay), 450'000);
  EXPECT_EQ(p.layer_est_ns(prof::Layer::Other), 0);
}

// ---------------------------------------------------------------------------
// The cardinal invariant: profiling does not perturb the simulation
// ---------------------------------------------------------------------------

Workload prof_workload() { return {"ring", make_ring_trace(24, 32 * units::kKiB, 2)}; }

ExperimentOptions prof_options(const std::string& telemetry_dir) {
  ExperimentOptions o;
  o.topo = TopoParams::tiny();
  o.seed = 11;
  o.max_events = 100'000'000;
  o.telemetry.enabled = true;
  o.telemetry.sample_rate = 0.05;
  o.telemetry.snapshot_interval = 20 * units::kMicrosecond;
  o.telemetry.out_dir = temp_path(telemetry_dir);
  return o;
}

const char* const kArtifacts[] = {"metrics.json", "counters.jsonl", "heatmap.csv", "trace.json"};

void expect_artifacts_byte_equal(const ExperimentOptions& a, const ExperimentOptions& b,
                                 const std::string& config_name, const std::string& what) {
  for (const char* artifact : kArtifacts) {
    const std::string lhs = slurp(a.telemetry.out_dir + "/" + config_name + "/" + artifact);
    const std::string rhs = slurp(b.telemetry.out_dir + "/" + config_name + "/" + artifact);
    ASSERT_FALSE(lhs.empty()) << artifact;
    EXPECT_EQ(lhs, rhs) << artifact << " differs: " << what;
  }
}

// The integer after `"<name>": ` at or after `from` in a prof.json text.
std::int64_t json_int(const std::string& text, const std::string& name, std::size_t from = 0) {
  const std::string needle = "\"" + name + "\": ";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << name;
    return -1;
  }
  return std::stoll(text.substr(at + needle.size()));
}

const char* const kLayers[] = {"scheduler", "network", "routing", "replay", "telemetry", "other"};

struct LayerField {
  std::int64_t est_ns;
  std::int64_t sampled;
};

LayerField layer_field(const std::string& text, const std::string& layer) {
  const std::size_t at = text.find("\"" + layer + "\": {", text.find("\"layers\""));
  EXPECT_NE(at, std::string::npos) << layer;
  return {json_int(text, "est_ns", at), json_int(text, "sampled", at)};
}

std::string prof_json_of(const ExperimentOptions& o, const ExperimentConfig& config) {
  return slurp(o.telemetry.out_dir + "/" + config.name() + "/prof.json");
}

TEST(ProfDifferential, SerialRunIsByteIdenticalWithProfilingOnOrOff) {
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Adaptive};
  const Workload workload = prof_workload();

  ExperimentOptions off = prof_options("prof-serial-off");
  const ExperimentResult r_off = run_experiment(workload, config, off);
  ASSERT_TRUE(r_off.conservation_ok);
  ASSERT_GT(r_off.metrics.events, 0u);

  ExperimentOptions on = prof_options("prof-serial-on");
  on.prof.enabled = true;
  const ExperimentResult r_on = run_experiment(workload, config, on);
  EXPECT_EQ(r_on.metrics.events, r_off.metrics.events);
  EXPECT_EQ(r_on.metrics.makespan_ms, r_off.metrics.makespan_ms);
  EXPECT_EQ(r_on.metrics.comm_time_ms, r_off.metrics.comm_time_ms);

  expect_artifacts_byte_equal(off, on, config.name(), "profiling on vs off");
  EXPECT_FALSE(fs::exists(off.telemetry.out_dir + "/" + config.name() + "/prof.json"));
  EXPECT_TRUE(fs::exists(on.telemetry.out_dir + "/" + config.name() + "/prof.json"));
}

TEST(ProfDifferential, FillBoundaryOnThetaIsByteIdenticalWithProfilingOnOrOff) {
  // A paper workload at reduced scale on the full Theta topology, with the
  // counter probe and the Chrome trace on: the sampled dispatches, the
  // nested routing and replay scopes and the telemetry handlers all run.
  FbParams params;
  params.iterations = 1;
  params.scale = 0.25;
  const Workload workload = make_fill_boundary(params);
  const ExperimentConfig config{PlacementKind::RandomNode, RoutingKind::Adaptive};

  ExperimentOptions off;
  off.seed = 42;
  off.telemetry.enabled = true;
  off.telemetry.chrome_trace = true;
  off.telemetry.out_dir = temp_path("prof-fb-off");
  ExperimentOptions on = off;
  on.telemetry.out_dir = temp_path("prof-fb-on");
  on.prof.enabled = true;

  const ExperimentResult r_off = run_experiment(workload, config, off);
  const ExperimentResult r_on = run_experiment(workload, config, on);
  ASSERT_TRUE(r_off.conservation_ok);
  ASSERT_GT(r_off.metrics.events, 100u * kStride);
  EXPECT_EQ(r_on.metrics.events, r_off.metrics.events);
  EXPECT_EQ(r_on.metrics.comm_time_ms, r_off.metrics.comm_time_ms);
  expect_artifacts_byte_equal(off, on, config.name(), "FB on Theta, profiling on vs off");

  const std::string text = prof_json_of(on, config);
  EXPECT_EQ(json_int(text, "events"), static_cast<std::int64_t>(r_on.metrics.events));
  // The counter probe ticks once per simulated ms, too rarely to be sure of
  // a sample; every other layer here runs on most dispatches.
  for (const char* layer : {"scheduler", "network", "routing", "replay"})
    EXPECT_GT(layer_field(text, layer).est_ns, 0) << layer;
  std::int64_t sum = 0;
  for (const char* layer : kLayers) sum += layer_field(text, layer).est_ns;
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(json_int(text, "loop_ns")), 8.0);
  EXPECT_LE(json_int(text, "loop_ns"), json_int(text, "wall_ns"));
}

TEST(ProfReport, ProfJsonCarriesAttributionAndLaneBreakdown) {
  // Schema 4: exclusive sampled layers, the exact event total and stride,
  // the telemetry-export scope, the sampled dispatch histogram and the
  // cumulative throughput.
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};
  ExperimentOptions o = prof_options("prof-report");
  o.prof.enabled = true;
  const ExperimentResult r = run_experiment(prof_workload(), config, o);
  ASSERT_GT(r.metrics.events, 0u);

  const std::string text = prof_json_of(o, config);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(contains(text, "\"schema_version\": 4"));
  EXPECT_EQ(json_int(text, "events"), static_cast<std::int64_t>(r.metrics.events));
  EXPECT_EQ(json_int(text, "stride"), kStride);
  EXPECT_GE(json_int(text, "clock_read_ns"), 0);
  for (const char* layer : kLayers) EXPECT_GE(layer_field(text, layer).est_ns, 0) << layer;
  EXPECT_GT(layer_field(text, "network").est_ns, 0);
  EXPECT_GT(layer_field(text, "scheduler").est_ns, 0);
  EXPECT_TRUE(contains(text, "\"telemetry_export\": {"));
  EXPECT_GT(json_int(text, "calls", text.find("\"telemetry_export\"")), 0);
  EXPECT_EQ(json_int(text, "count", text.find("\"dispatch_ns\"")),
            static_cast<std::int64_t>(r.metrics.events / kStride));
  EXPECT_TRUE(contains(text, "\"throughput\""));
  EXPECT_TRUE(contains(text, "\"cumulative\""));
  EXPECT_TRUE(contains(text, "\"p99.9\""));
  for (const char* removed : {"\"subsystems\"", "\"event_dispatch\"", "\"threads\"",
                              "\"lanes\"", "\"lanes_breakdown\"", "\"barrier_wait_ns\"",
                              "\"checkpoint_io\"", "\"rolling\""})
    EXPECT_FALSE(contains(text, removed)) << removed;

  // The other artifacts keep their own schema versions.
  EXPECT_TRUE(contains(slurp(o.telemetry.out_dir + "/" + config.name() + "/metrics.json"),
                       "\"schema_version\": 2"));
  EXPECT_TRUE(contains(slurp(o.telemetry.out_dir + "/" + config.name() + "/counters.jsonl"),
                       "\"schema_version\":2"));
}

TEST(ProfReport, SameRunTwiceSamplesTheSameDispatches) {
  // The countdown, not the clock or the simulation's Rng, picks the sample:
  // two runs time the same dispatches, so every layer's count matches, and
  // the counts partition the floor(events / stride) sampled dispatches.
  const ExperimentConfig config{PlacementKind::RandomNode, RoutingKind::Adaptive};
  std::vector<std::int64_t> counts[2];
  std::uint64_t events = 0;
  for (int run = 0; run < 2; ++run) {
    ExperimentOptions o = prof_options("prof-twice-" + std::to_string(run));
    o.prof.enabled = true;
    events = run_experiment(prof_workload(), config, o).metrics.events;
    const std::string text = prof_json_of(o, config);
    for (const char* layer : kLayers) counts[run].push_back(layer_field(text, layer).sampled);
  }
  EXPECT_EQ(counts[0], counts[1]);
  std::int64_t sum = 0;
  for (const std::int64_t c : counts[0]) sum += c;
  EXPECT_EQ(sum, static_cast<std::int64_t>(events / kStride));
  EXPECT_GT(counts[0][1], 0) << "network dispatches were sampled";
  EXPECT_EQ(counts[0][0], 0) << "the scheduler handles no events";
  EXPECT_EQ(counts[0][2], 0) << "routing handles no events";
}

TEST(ProfReport, RunShorterThanTheStrideWritesZeroEstimates) {
  // Two ranks, one tiny message: fewer dispatches than the stride, so no
  // dispatch is timed. The report must still be valid JSON with zeros.
  const Workload tiny{"ring", make_ring_trace(2, 64, 1)};
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};
  ExperimentOptions o = prof_options("prof-short");
  o.prof.enabled = true;
  o.telemetry.chrome_trace = false;
  const ExperimentResult r = run_experiment(tiny, config, o);
  ASSERT_GT(r.metrics.events, 0u);
  ASSERT_LT(r.metrics.events, kStride);

  const std::string text = prof_json_of(o, config);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(json_int(text, "events"), static_cast<std::int64_t>(r.metrics.events));
  EXPECT_EQ(json_int(text, "timed_ns"), 0);
  for (const char* layer : kLayers) {
    EXPECT_EQ(layer_field(text, layer).est_ns, 0) << layer;
    EXPECT_EQ(layer_field(text, layer).sampled, 0) << layer;
  }
  EXPECT_EQ(json_int(text, "count", text.find("\"dispatch_ns\"")), 0);
  for (const char* bad : {"nan", "inf", "null"}) EXPECT_FALSE(contains(text, bad)) << bad;
}

TEST(ProfReport, ProfilerRejectsAnythingButOneLane) {
  EXPECT_NO_THROW(prof::Profiler(prof::ProfOptions{}, 1, 0));
  EXPECT_THROW(prof::Profiler(prof::ProfOptions{}, 10, 0), std::invalid_argument);
  EXPECT_THROW(prof::Profiler(prof::ProfOptions{}, 0, 0), std::invalid_argument);
  EXPECT_THROW(prof::Profiler(prof::ProfOptions{}, 1, 2), std::invalid_argument);
}

// Sweeps: profiling every job of a pooled sweep perturbs none of them
// ---------------------------------------------------------------------------

TEST(ProfSweep, ProfiledSweepMatchesUnprofiledSweep) {
  const Workload workload = prof_workload();
  const std::vector<ExperimentConfig> configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal},
      {PlacementKind::RandomNode, RoutingKind::Adaptive}};

  ExperimentOptions o;
  o.topo = TopoParams::tiny();
  o.seed = 11;
  const std::vector<ExperimentResult> golden = run_matrix(workload, configs, o, 2);

  o.prof.enabled = true;
  const std::vector<ExperimentResult> results = run_matrix(workload, configs, o, 2);
  ASSERT_EQ(results.size(), golden.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].config, golden[i].config);
    EXPECT_EQ(results[i].metrics.events, golden[i].metrics.events) << configs[i].name();
    EXPECT_EQ(results[i].metrics.comm_time_ms, golden[i].metrics.comm_time_ms);
  }
}

}  // namespace
}  // namespace dfly
