// Tests for the observability layer: JSON writer, counter registry/probe,
// flight-recorder chunk tracing, Chrome trace rendering, and the run-artifact
// exporter driven through run_experiment.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "core/experiment.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "routing/adaptive.hpp"
#include "routing/minimal.hpp"
#include "workload/synthetic.hpp"

namespace dfly {
namespace {

// --- a tiny recursive-descent JSON validator (syntax only) ---
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // '{'
    ws();
    if (peek() == '}') { ++i_; return true; }
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (peek() != ':') return false;
      ++i_;
      ws();
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == '}') { ++i_; return true; }
      return false;
    }
  }
  bool array() {
    ++i_;  // '['
    ws();
    if (peek() == ']') { ++i_; return true; }
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == ']') { ++i_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') { ++i_; continue; }
      if (s_[i_] == '"') { ++i_; return true; }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' ||
                              s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(i_, l.size(), l) != 0) return false;
    i_ += l.size();
    return true;
  }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(JsonWriter, CompactObjectWithEscapesAndNonFinite) {
  std::ostringstream os;
  obs::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.field("name", std::string("a\"b\\c\n\t"));
  w.field("int", std::int64_t{-42});
  w.field("pi", 3.25);
  w.field("bad", std::numeric_limits<double>::quiet_NaN());
  w.field("flag", true);
  w.key("list").begin_array().value(1).value(2).end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\\t\",\"int\":-42,\"pi\":3.25,\"bad\":null,"
            "\"flag\":true,\"list\":[1,2]}");
  EXPECT_EQ(w.depth(), 0u);
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(JsonWriter, PrettyOutputIsValidJson) {
  std::ostringstream os;
  obs::JsonWriter w(os, 2);
  w.begin_object();
  w.key("rows").begin_array();
  w.begin_object().field("x", 1).end_object();
  w.begin_object().field("y", 2.5).end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(Counters, OwnedCellsAreStableAndFindOrCreate) {
  CounterRegistry registry;
  std::uint64_t& a = registry.counter("x.count");
  a += 3;
  std::uint64_t& again = registry.counter("x.count");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(registry.size(), 1u);

  const CounterSnapshot snap = registry.snapshot(123);
  EXPECT_EQ(snap.time, 123);
  EXPECT_EQ(snap.value_of("x.count"), 3);
  EXPECT_TRUE(snap.contains("x.count"));
  EXPECT_FALSE(snap.contains("x.other"));
  EXPECT_THROW(snap.value_of("x.other"), std::out_of_range);
}

TEST(Counters, SnapshotIsSortedByName) {
  CounterRegistry registry;
  registry.counter("z.last") = 1;
  registry.counter("a.first") = 2;
  registry.add_source("m.middle", MetricKind::Gauge, [] { return std::int64_t{7}; });
  const CounterSnapshot snap = registry.snapshot(0);
  ASSERT_EQ(snap.values.size(), 3u);
  EXPECT_EQ(snap.values[0].first, "a.first");
  EXPECT_EQ(snap.values[1].first, "m.middle");
  EXPECT_EQ(snap.values[2].first, "z.last");
}

TEST(Counters, DuplicateRegistrationThrows) {
  CounterRegistry registry;
  registry.add_source("net.bytes", MetricKind::Counter, [] { return std::int64_t{0}; });
  EXPECT_THROW(
      registry.add_source("net.bytes", MetricKind::Counter, [] { return std::int64_t{0}; }),
      std::invalid_argument);
  // An owned cell cannot shadow a polled source either.
  EXPECT_THROW(registry.counter("net.bytes"), std::invalid_argument);
}

TEST(Counters, ProbeSamplesPeriodicallyAndStops) {
  Engine engine;
  CounterRegistry registry;
  std::uint64_t& ticks = registry.counter("test.ticks");
  CounterProbe probe(engine, registry, 100);
  EXPECT_THROW(CounterProbe(engine, registry, 0), std::invalid_argument);

  probe.start();
  EXPECT_THROW(probe.start(), std::logic_error);
  engine.run_until(500);
  ticks = 9;
  probe.request_stop();
  engine.run();
  probe.sample_now(engine.now());

  ASSERT_GE(probe.snapshots().size(), 3u);
  for (std::size_t i = 1; i < probe.snapshots().size(); ++i)
    EXPECT_GT(probe.snapshots()[i].time, probe.snapshots()[i - 1].time - 1);
  EXPECT_EQ(probe.snapshots().back().value_of("test.ticks"), 9);
}

// Sink that records everything for inspection.
struct RecordingSink : TraceSink {
  std::vector<HopEvent> hops;
  std::uint64_t sampled = 0;
  std::uint64_t closed = 0;
  void on_hop(const HopEvent& hop) override { hops.push_back(hop); }
  void on_chunk_sampled(std::uint64_t, MsgId, NodeId, NodeId, Bytes, SimTime) override {
    ++sampled;
  }
  void on_chunk_closed(std::uint64_t, SimTime) override { ++closed; }
};

struct TracedRun {
  RecordingSink sink;
  std::uint64_t chunks_seen = 0;
  std::uint64_t chunks_sampled = 0;
  std::size_t live = 0;
};

// Runs uniform traffic on the tiny topology with a tracer at `rate`.
TracedRun run_traced(double rate, int messages = 16) {
  TracedRun out;
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  MinimalRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  ChunkPathTracer tracer(out.sink, rate);
  network.set_tracer(&tracer);
  const int nodes = topo.params().total_nodes();
  for (int m = 0; m < messages; ++m)
    network.send(m % nodes, (m + nodes / 2) % nodes, 64 * units::kKiB);
  engine.run();
  network.set_tracer(nullptr);
  out.chunks_seen = tracer.chunks_seen();
  out.chunks_sampled = tracer.chunks_sampled();
  out.live = tracer.live_chunks();
  return out;
}

TEST(Tracer, RejectsOutOfRangeSampleRate) {
  RecordingSink sink;
  EXPECT_THROW(ChunkPathTracer(sink, -0.01), std::invalid_argument);
  EXPECT_THROW(ChunkPathTracer(sink, 1.01), std::invalid_argument);
}

TEST(Tracer, SampleRateOneTracesEveryChunk) {
  const TracedRun run = run_traced(1.0);
  EXPECT_GT(run.chunks_seen, 0u);
  EXPECT_EQ(run.chunks_sampled, run.chunks_seen);
  EXPECT_EQ(run.sink.sampled, run.chunks_seen);
  EXPECT_EQ(run.sink.closed, run.chunks_seen);      // all delivered after drain
  EXPECT_EQ(run.live, 0u);
}

TEST(Tracer, SampleRateZeroTracesNothing) {
  const TracedRun run = run_traced(0.0);
  EXPECT_GT(run.chunks_seen, 0u);
  EXPECT_EQ(run.chunks_sampled, 0u);
  EXPECT_TRUE(run.sink.hops.empty());
}

TEST(Tracer, FractionalRateMatchesConfiguredFraction) {
  const TracedRun run = run_traced(0.25, 64);
  ASSERT_GT(run.chunks_seen, 16u);
  // The error-feedback accumulator admits exactly floor/round(rate * n) ± 1.
  const double expected = 0.25 * static_cast<double>(run.chunks_seen);
  EXPECT_NEAR(static_cast<double>(run.chunks_sampled), expected, 1.0);
}

TEST(Tracer, HopTimestampsAreMonotonicPerChunk) {
  const TracedRun run = run_traced(1.0);
  ASSERT_FALSE(run.sink.hops.empty());
  std::map<std::uint64_t, std::vector<HopEvent>> by_chunk;
  for (const HopEvent& hop : run.sink.hops) by_chunk[hop.chunk].push_back(hop);
  EXPECT_EQ(by_chunk.size(), run.chunks_seen);
  for (const auto& [serial, hops] : by_chunk) {
    for (std::size_t i = 0; i < hops.size(); ++i) {
      EXPECT_LE(hops[i].enqueue_time, hops[i].start_time) << "chunk " << serial;
      EXPECT_LT(hops[i].start_time, hops[i].end_time) << "chunk " << serial;
      EXPECT_GE(hops[i].queue_depth, 0) << "chunk " << serial;
      if (i > 0) {
        // The wire release at hop i-1 precedes arrival (enqueue) at hop i.
        EXPECT_LE(hops[i - 1].end_time, hops[i].enqueue_time) << "chunk " << serial;
      }
    }
    // Minimal routing on a healthy network: between 1 hop (ejection at the
    // source router) and the max route length.
    EXPECT_GE(hops.size(), 1u);
    EXPECT_LE(hops.size(), static_cast<std::size_t>(kMaxRouteHops));
  }
}

TEST(Tracer, ChromeTraceRendersValidJson) {
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  MinimalRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  ChromeTraceWriter writer;
  ChunkPathTracer tracer(writer, 1.0);
  network.set_tracer(&tracer);
  network.send(0, topo.params().total_nodes() - 1, 16 * units::kKiB);
  engine.run();
  network.set_tracer(nullptr);

  ASSERT_GT(writer.hops().size(), 0u);
  std::ostringstream os;
  writer.render(os);
  const std::string doc = os.str();
  EXPECT_TRUE(JsonChecker(doc).valid());
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\""), std::string::npos);
  EXPECT_NE(doc.find("\"X\""), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);
}

// The trace.json layout as obs::JsonWriter(os, 1) renders it: the reference
// the buffered ChromeTraceWriter::render must match byte for byte.
std::string json_writer_trace(const std::vector<HopEvent>& hops) {
  std::ostringstream os;
  obs::JsonWriter w(os, 1);
  w.begin_object();
  w.field("displayTimeUnit", "ns");
  w.key("traceEvents").begin_array();
  std::map<RouterId, std::map<int, PortKind>> tracks;
  for (const HopEvent& hop : hops) tracks[hop.router][hop.port] = hop.kind;
  for (const auto& [router, ports] : tracks) {
    w.begin_object().field("ph", "M").field("name", "process_name").field("pid", router);
    w.key("args").begin_object().field("name", "router " + std::to_string(router)).end_object();
    w.end_object();
    for (const auto& [port, kind] : ports) {
      w.begin_object().field("ph", "M").field("name", "thread_name").field("pid", router);
      w.field("tid", port);
      w.key("args").begin_object();
      w.field("name", "port " + std::to_string(port) + " (" + to_string(kind) + ")");
      w.end_object().end_object();
    }
  }
  for (const HopEvent& hop : hops) {
    w.begin_object().field("ph", "X");
    w.field("name", "m" + std::to_string(hop.msg) + "/c" + std::to_string(hop.chunk));
    w.field("cat", to_string(hop.kind)).field("pid", hop.router).field("tid", int{hop.port});
    w.field("ts", static_cast<double>(hop.start_time) / 1000.0);
    w.field("dur", static_cast<double>(hop.end_time - hop.start_time) / 1000.0);
    w.key("args").begin_object();
    w.field("msg", hop.msg).field("chunk", hop.chunk).field("src_node", hop.src);
    w.field("dst_node", hop.dst).field("vc", int{hop.vc}).field("bytes", hop.bytes);
    w.field("queue_depth_bytes", hop.queue_depth);
    w.field("queue_wait_ns", hop.start_time - hop.enqueue_time);
    w.end_object().end_object();
  }
  w.end_array().end_object();
  os << '\n';
  return os.str();
}

TEST(Tracer, ChromeTraceMatchesTheJsonWriterLayout) {
  ChromeTraceWriter empty;
  std::ostringstream none;
  empty.render(none);
  EXPECT_EQ(none.str(), json_writer_trace({}));

  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  AdaptiveRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(3));
  ChromeTraceWriter writer;
  ChunkPathTracer tracer(writer, 1.0);
  network.set_tracer(&tracer);
  const int nodes = topo.params().total_nodes();
  for (int n = 0; n < nodes; ++n) network.send(n, (n + 5) % nodes, 5000 + 333 * n);
  engine.run();
  network.set_tracer(nullptr);
  ASSERT_GT(writer.hops().size(), 100u);
  std::ostringstream os;
  writer.render(os);
  EXPECT_EQ(os.str(), json_writer_trace(writer.hops()));
}

TEST(RoutingTelemetry, AdaptiveDecisionsAreRecorded) {
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  AdaptiveRouting routing(topo);
  RoutingTelemetry stats;
  routing.set_telemetry(&stats);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  const int nodes = topo.params().total_nodes();
  for (int n = 0; n < nodes; ++n) network.send(n, (n + nodes / 2) % nodes, 64 * units::kKiB);
  engine.run();
  routing.set_telemetry(nullptr);

  EXPECT_GT(stats.decisions(), 0u);
  EXPECT_EQ(stats.decisions(), stats.minimal_total() + stats.nonminimal_total());
  std::uint64_t per_source_sum = 0;
  for (const RouteDecisionStats& d : stats.per_source()) per_source_sum += d.minimal + d.nonminimal;
  EXPECT_EQ(per_source_sum, stats.decisions());
}

TEST(Telemetry, OptionsValidateRejectsBadValues) {
  TelemetryOptions o;
  o.sample_rate = 2.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.sample_rate = 0.5;
  o.snapshot_interval = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.snapshot_interval = 1000;
  o.enabled = true;
  o.out_dir.clear();
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(Telemetry, ExperimentExportsAllArtifacts) {
  namespace fs = std::filesystem;
  const fs::path out = fs::path(::testing::TempDir()) / "dfly-obs-test";
  fs::remove_all(out);

  Workload workload{"ring", make_ring_trace(/*ranks=*/16, 32 * units::kKiB, /*iterations=*/1)};
  ExperimentOptions options;
  options.topo = TopoParams::tiny();
  options.seed = 7;
  options.telemetry.enabled = true;
  options.telemetry.sample_rate = 0.5;
  options.telemetry.out_dir = out.string();
  options.telemetry.snapshot_interval = 10 * units::kMicrosecond;
  const ExperimentConfig config{PlacementKind::RandomNode, RoutingKind::Adaptive};
  const ExperimentResult result = run_experiment(workload, config, options);

  ASSERT_FALSE(result.telemetry_dir.empty());
  const fs::path dir(result.telemetry_dir);
  EXPECT_EQ(dir.filename().string(), result.config);
  for (const char* name : {"metrics.json", "trace.json", "counters.jsonl", "heatmap.csv"})
    EXPECT_TRUE(fs::exists(dir / name)) << name;

  EXPECT_GT(result.trace_chunks_seen, 0u);
  EXPECT_NEAR(static_cast<double>(result.trace_chunks_sampled),
              0.5 * static_cast<double>(result.trace_chunks_seen), 1.0);

  EXPECT_TRUE(JsonChecker(read_file(dir / "metrics.json")).valid());
  EXPECT_TRUE(JsonChecker(read_file(dir / "trace.json")).valid());

  std::ifstream jsonl(dir / "counters.jsonl");
  std::string line;
  int lines = 0;
  while (std::getline(jsonl, line)) {
    ++lines;
    EXPECT_TRUE(JsonChecker(line).valid()) << "line " << lines;
    EXPECT_NE(line.find("\"net.bytes_delivered\""), std::string::npos);
    EXPECT_NE(line.find("\"routing.decisions\""), std::string::npos);
  }
  EXPECT_GE(lines, 2);  // at least the start and end-of-run snapshots

  std::ifstream csv(dir / "heatmap.csv");
  std::getline(csv, line);
  EXPECT_EQ(line, "router,port,kind,traffic_bytes,saturated_ns,utilization");
  int csv_rows = 0;
  while (std::getline(csv, line)) ++csv_rows;
  const TopoParams topo = TopoParams::tiny();
  EXPECT_GT(csv_rows, topo.total_routers());  // every router contributes ports

  fs::remove_all(out);
}

TEST(Telemetry, DisabledLeavesNoFootprint) {
  Workload workload{"ring", make_ring_trace(8, 16 * units::kKiB, 1)};
  ExperimentOptions options;
  options.topo = TopoParams::tiny();
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};
  const ExperimentResult result = run_experiment(workload, config, options);
  EXPECT_TRUE(result.telemetry_dir.empty());
  EXPECT_EQ(result.trace_chunks_seen, 0u);
  EXPECT_EQ(result.trace_chunks_sampled, 0u);
}

}  // namespace
}  // namespace dfly
