// Microbenchmarks (google-benchmark) for the simulator's hot paths: event
// scheduling/dispatch, route computation, topology construction, placement
// generation, and end-to-end network throughput in events per second.
//
// In addition to the google-benchmark suite, main() runs a head-to-head
// scheduler harness — binary heap vs. the timing wheel (CalendarEventQueue), on
// a monotonic and a backoff-heavy event mix, 7 alternating repetitions each —
// and records each queue's median, min and max throughput into
// BENCH_engine.json so the scheduler's perf trajectory is tracked PR over PR.
//
//   bench_micro_engine                # head-to-head + full gbench suite
//   bench_micro_engine --smoke        # quick head-to-head only; exits 1 if
//                                     # the timing wheel regresses vs. heap
//   bench_micro_engine --out=FILE     # where to write the JSON (default
//                                     # BENCH_engine.json in the cwd)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/network.hpp"
#include "place/placement.hpp"
#include "routing/adaptive.hpp"
#include "routing/minimal.hpp"
#include "routing/valiant.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"

namespace dfly {
namespace {

class NullHandler : public EventHandler {
 public:
  void handle_event(SimTime, const EventPayload&) override {}
};

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  NullHandler handler;
  for (auto _ : state) {
    Engine engine;
    Rng rng(1);
    for (std::uint64_t i = 0; i < events; ++i)
      engine.schedule(static_cast<SimTime>(rng.uniform(1'000'000)), &handler, EventPayload{});
    engine.run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1 << 14)->Arg(1 << 17);

class IdleCongestion : public CongestionView {
 public:
  Bytes queued_bytes(RouterId, int) const override { return 0; }
};

template <typename Algorithm>
void route_benchmark(benchmark::State& state) {
  static const DragonflyTopology topo(TopoParams::theta());
  const Algorithm routing(topo);
  IdleCongestion idle;
  Rng rng(7);
  const int nodes = topo.params().total_nodes();
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(rng.uniform(nodes));
    auto dst = static_cast<NodeId>(rng.uniform(nodes - 1));
    if (dst >= src) ++dst;
    benchmark::DoNotOptimize(routing.compute(src, dst, idle, rng));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MinimalRoute(benchmark::State& state) { route_benchmark<MinimalRouting>(state); }
void BM_ValiantRoute(benchmark::State& state) { route_benchmark<ValiantRouting>(state); }
void BM_AdaptiveRoute(benchmark::State& state) { route_benchmark<AdaptiveRouting>(state); }
BENCHMARK(BM_MinimalRoute);
BENCHMARK(BM_ValiantRoute);
BENCHMARK(BM_AdaptiveRoute);

void BM_ThetaTopologyBuild(benchmark::State& state) {
  for (auto _ : state) {
    DragonflyTopology topo(TopoParams::theta());
    benchmark::DoNotOptimize(topo.total_channels());
  }
}
BENCHMARK(BM_ThetaTopologyBuild);

void BM_Placement(benchmark::State& state) {
  const TopoParams params = TopoParams::theta();
  const auto kind = static_cast<PlacementKind>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_placement(kind, params, 1000, rng));
  }
}
BENCHMARK(BM_Placement)->DenseRange(0, 4);

void BM_NetworkRandomTraffic(benchmark::State& state) {
  // End-to-end events/sec: 2000 random messages of 16 KiB on Theta.
  static const DragonflyTopology topo(TopoParams::theta());
  for (auto _ : state) {
    Engine engine;
    MinimalRouting routing(topo);
    Network network(engine, topo, NetworkParams::theta(), routing, Rng(3));
    Rng traffic(5);
    const int nodes = topo.params().total_nodes();
    for (int i = 0; i < 2000; ++i) {
      const auto src = static_cast<NodeId>(traffic.uniform(nodes));
      auto dst = static_cast<NodeId>(traffic.uniform(nodes - 1));
      if (dst >= src) ++dst;
      network.send(src, dst, 16 * units::kKiB);
    }
    engine.run();
    benchmark::DoNotOptimize(network.bytes_delivered());
    state.counters["events"] = static_cast<double>(engine.events_processed());
  }
}
BENCHMARK(BM_NetworkRandomTraffic)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Head-to-head scheduler harness: heap vs. timing wheel.
//
// The hold model mirrors the simulator's steady state: the queue sits at a
// fixed occupancy and every dispatched event schedules a successor.
//  * monotonic mix — every successor lands a short uniform delay ahead, the
//    distribution of chunk/credit/port events in a running network.
//  * backoff-heavy mix — 10% of successors are exponential-backoff timers at
//    20 us << k (k in [0,16)), seconds into the future; stresses the
//    overflow tier.
// ---------------------------------------------------------------------------

struct MixSpec {
  const char* name;
  double far_fraction;  // probability a successor is a far-future backoff timer
};

constexpr MixSpec kMixes[] = {
    {"monotonic", 0.0},
    {"backoff_heavy", 0.1},
};

template <typename Queue>
double measure_mix_meps(const MixSpec& mix, std::size_t hold, std::uint64_t events) {
  Queue queue;
  NullHandler handler;
  Rng rng(42);
  std::uint64_t seq = 0;
  SimTime now = 0;
  for (std::size_t i = 0; i < hold; ++i) {
    const auto when = static_cast<SimTime>(1 + rng.uniform(2000));
    queue.push(QueuedEvent{when, seq++, &handler, EventPayload{}});
  }
  SimTime checksum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t e = 0; e < events; ++e) {
    const QueuedEvent ev = queue.pop_min();
    now = ev.time;
    checksum += now;
    SimTime delay;
    if (mix.far_fraction > 0.0 && rng.bernoulli(mix.far_fraction))
      delay = SimTime{20} * units::kMicrosecond << static_cast<int>(rng.uniform(16));
    else
      delay = 1 + static_cast<SimTime>(rng.uniform(2000));
    queue.push(QueuedEvent{now + delay, seq++, &handler, EventPayload{}});
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(checksum);
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(events) / secs / 1e6;
}

/// One queue's throughput over the repetitions, in Mev/s.
struct Samples {
  std::vector<double> meps;

  double min() const { return *std::min_element(meps.begin(), meps.end()); }
  double max() const { return *std::max_element(meps.begin(), meps.end()); }
  double median() const {
    std::vector<double> sorted = meps;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
  }
};

struct MixResult {
  const char* name;
  std::uint64_t events;
  Samples heap;
  Samples calendar;
};

/// Runs the heap and the wheel alternately, `repetitions` times each, so a
/// drift in host speed falls on both queues alike.
MixResult run_head_to_head(const MixSpec& mix, std::size_t hold, std::uint64_t events,
                           int repetitions) {
  MixResult r{mix.name, events, {}, {}};
  for (int rep = 0; rep < repetitions; ++rep) {
    r.heap.meps.push_back(measure_mix_meps<HeapEventQueue>(mix, hold, events));
    r.calendar.meps.push_back(measure_mix_meps<CalendarEventQueue>(mix, hold, events));
  }
  return r;
}

int run_harness(bool smoke, const std::string& out_path) {
  const std::size_t hold = smoke ? (1u << 14) : (1u << 16);
  const std::uint64_t events = smoke ? 400'000 : 4'000'000;
  // The smoke gate compares the best of 2; the full run records the median
  // of 7, which a single slow or fast repetition does not move.
  const int repetitions = smoke ? 2 : 7;
  auto headline = [smoke](const Samples& s) { return smoke ? s.max() : s.median(); };

  MixResult results[std::size(kMixes)];
  double speedup[std::size(kMixes)];
  for (std::size_t i = 0; i < std::size(kMixes); ++i) {
    const MixResult& r = results[i] = run_head_to_head(kMixes[i], hold, events, repetitions);
    speedup[i] = headline(r.calendar) / headline(r.heap);
    std::printf("[engine %-13s] heap %7.2f Mev/s [%.2f-%.2f] | calendar %7.2f Mev/s [%.2f-%.2f] "
                "| speedup %.2fx (%s of %d)\n",
                r.name, headline(r.heap), r.heap.min(), r.heap.max(), headline(r.calendar),
                r.calendar.min(), r.calendar.max(), speedup[i], smoke ? "best" : "median",
                repetitions);
  }

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"benchmark\": \"bench_micro_engine\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n  \"hold\": %zu,\n", smoke ? "true" : "false", hold);
    std::fprintf(f, "  \"repetitions\": %d,\n  \"statistic\": \"%s\",\n  \"mixes\": [\n",
                 repetitions, smoke ? "best" : "median");
    for (std::size_t i = 0; i < std::size(kMixes); ++i) {
      const MixResult& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"events\": %llu, \"heap_meps\": %.3f, "
                   "\"heap_min_meps\": %.3f, \"heap_max_meps\": %.3f, \"calendar_meps\": %.3f, "
                   "\"calendar_min_meps\": %.3f, \"calendar_max_meps\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   r.name, static_cast<unsigned long long>(r.events), headline(r.heap),
                   r.heap.min(), r.heap.max(), headline(r.calendar), r.calendar.min(),
                   r.calendar.max(), speedup[i], i + 1 < std::size(kMixes) ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"host_cores\": %u\n", std::thread::hardware_concurrency());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  if (smoke) {
    // Loose gates (wall-clock noise, shared CI runners); the recorded JSON
    // carries the precise numbers. A timing wheel slower than the heap it
    // replaced is a regression worth failing the build for.
    int rc = 0;
    if (speedup[0] < 1.3) {
      std::fprintf(stderr, "FAIL: monotonic-mix speedup %.2fx < 1.3x\n", speedup[0]);
      rc = 1;
    }
    if (speedup[1] < 0.7) {
      std::fprintf(stderr, "FAIL: backoff-heavy-mix speedup %.2fx < 0.7x\n", speedup[1]);
      rc = 1;
    }
    return rc;
  }
  return 0;
}

}  // namespace
}  // namespace dfly

int main(int argc, char** argv) {
  bool smoke = false;
  bool harness_only = false;
  std::string out_path = "BENCH_engine.json";
  int gargc = 0;
  std::vector<char*> gargv;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--harness-only") == 0) {
      harness_only = true;  // full-size harness + JSON, skip the gbench suite
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      gargv.push_back(argv[i]);
      ++gargc;
    }
  }

  const int rc = dfly::run_harness(smoke, out_path);
  if (smoke || harness_only || rc != 0) return rc;

  benchmark::Initialize(&gargc, gargv.data());
  if (benchmark::ReportUnrecognizedArguments(gargc, gargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
