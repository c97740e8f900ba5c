// Tests for the simulation health monitor: conservation-audit arithmetic,
// stall detection, the structured deadlock diagnostic that replaces the old
// bare "experiment deadlocked" exception, and watchdog reports.
#include "fault/health.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fixed_routing.hpp"
#include "routing/minimal.hpp"
#include "trace/trace.hpp"
#include "workload/synthetic.hpp"

namespace dfly {
namespace {

TEST(Health, ConservationArithmetic) {
  EXPECT_TRUE(conservation_holds(0, 0, 0));
  EXPECT_TRUE(conservation_holds(100, 60, 40));
  EXPECT_FALSE(conservation_holds(100, 60, 41));
  EXPECT_FALSE(conservation_holds(100, 100, -1));
}

TEST(Health, OptionsValidated) {
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  MinimalRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  HealthOptions bad;
  bad.interval = 0;
  EXPECT_THROW(HealthMonitor(engine, network, bad), std::invalid_argument);
  bad = HealthOptions{};
  bad.stall_ticks = 0;
  EXPECT_THROW(HealthMonitor(engine, network, bad), std::invalid_argument);
}

TEST(Health, StallDetectionStopsTheEngine) {
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  MinimalRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));

  // Keeps the event queue alive forever without moving any bytes — the shape
  // of a livelock the monitor must catch (a hard deadlock drains the queue).
  struct Spinner : EventHandler {
    Engine* eng;
    void handle_event(SimTime, const EventPayload&) override {
      eng->schedule_after(100, this, EventPayload{});
    }
  } spinner;
  spinner.eng = &engine;
  engine.schedule(0, &spinner, EventPayload{});

  HealthOptions options;
  options.interval = 1000;
  options.stall_ticks = 3;
  HealthMonitor monitor(engine, network, options);
  monitor.set_work_remaining([] { return true; });
  monitor.start();
  engine.run();

  EXPECT_TRUE(monitor.stalled());
  EXPECT_TRUE(engine.stop_requested());
  EXPECT_LE(engine.now(), 10'000) << "monitor let the spinner run far past the stall window";
  EXPECT_TRUE(monitor.report().stalled);
  EXPECT_NE(monitor.report().to_string().find("STALLED"), std::string::npos);
}

TEST(Health, MonitorDoesNotKeepFinishedSimulationAlive) {
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  MinimalRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));

  HealthOptions options;
  options.interval = 1000;
  HealthMonitor monitor(engine, network, options);  // default work_remaining: in-flight msgs
  monitor.start();
  engine.run();

  // One tick fires, sees no work, and stops rescheduling; the engine drains.
  EXPECT_EQ(monitor.ticks(), 1u);
  EXPECT_EQ(engine.now(), 1000);
  EXPECT_FALSE(monitor.stalled());
  EXPECT_FALSE(monitor.deadlock_detected());
}

TEST(Health, CaptureReportsFabricState) {
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  MinimalRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));
  network.send(0, 40, 64 * units::kKiB);  // cross-group, still queued at t=0

  HealthMonitor monitor(engine, network);
  const HealthReport report = monitor.capture(0);
  EXPECT_EQ(report.messages_in_flight, 1u);
  EXPECT_TRUE(report.conservation_ok);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("simulation health report"), std::string::npos);
  EXPECT_NE(text.find("messages in flight: 1"), std::string::npos);
}

/// Calls Network::send when its event fires, so a test can start a flow at a
/// chosen time.
class SendAt : public EventHandler {
 public:
  SendAt(Network& network, NodeId src, NodeId dst, Bytes bytes)
      : network_(network), src_(src), dst_(dst), bytes_(bytes) {}
  void handle_event(SimTime, const EventPayload&) override { network_.send(src_, dst_, bytes_); }

 private:
  Network& network_;
  NodeId src_, dst_;
  Bytes bytes_;
};

TEST(Health, DrainingPortWithAStarvedIdleVcIsNotReported) {
  // One-chunk VC buffers. Flow X (router 0 -> 1) crosses router 0's port
  // towards router 1 on VC 0; flow Y (router 2 -> 0 -> 1) crosses it on VC 1.
  // X is started so that it takes the port just before Y arrives: Y then
  // waits, sendable, while VC 0 has no credit and nothing queued.
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  NetworkParams params = NetworkParams::theta();
  params.local_vc_buffer = params.chunk_bytes;
  const int npr = topo.params().nodes_per_router;
  const NodeId x_src = 0, y_src = 2 * npr, x_dst = npr, y_dst = npr + 1;
  FixedRouting routing(topo);
  routing.pin(x_src, x_dst, {0, 1});
  routing.pin(y_src, y_dst, {2, 0, 1});
  Network network(engine, topo, params, routing, Rng(1));
  HealthMonitor monitor(engine, network);
  SendAt start_x(network, x_src, x_dst, params.chunk_bytes);
  network.send(y_src, y_dst, params.chunk_bytes);
  const SimTime t_local =
      units::transfer_time(params.chunk_bytes, params.bandwidth(PortKind::LocalRow));
  engine.schedule(params.local_latency + params.router_delay + t_local / 2, &start_x,
                  EventPayload{});

  const int shared = topo.local_port_to(0, 1);
  const OutPort& op = network.port(0, shared);
  int observed = 0;
  for (SimTime t = 0; engine.pending() > 0 && t < 100 * units::kMicrosecond; ++t) {
    engine.run_until(t);
    if (op.queue.empty()) continue;
    std::vector<bool> queued(op.credits.size(), false);
    bool all_sendable = true;
    for (const QueuedChunk& e : op.queue) {
      queued[e.vc] = true;
      all_sendable = all_sendable && op.credits[e.vc] >= e.bytes;
    }
    bool idle_starved = false;
    for (std::size_t vc = 0; vc < queued.size(); ++vc)
      idle_starved = idle_starved || (!queued[vc] && op.credits[vc] < params.chunk_bytes);
    if (!all_sendable || !idle_starved) continue;
    ++observed;
    const HealthReport report = monitor.capture(t);
    EXPECT_TRUE(report.stuck_ports.empty()) << report.to_string();
  }
  EXPECT_GT(observed, 0) << "the draining-port state never occurred";
  EXPECT_EQ(network.bytes_delivered(), 2 * params.chunk_bytes);
}

TEST(Health, PortWhoseQueuedChunksDoNotFitIsReportedWithItsBlockedVc) {
  // A 1.5-chunk VC buffer: after the first chunk of a two-chunk message
  // leaves, the second waits on VC 0 until credit returns.
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  NetworkParams params = NetworkParams::theta();
  params.local_vc_buffer = params.chunk_bytes * 3 / 2;
  const NodeId src = 0, dst = topo.params().nodes_per_router;
  FixedRouting routing(topo);
  routing.pin(src, dst, {0, 1});
  Network network(engine, topo, params, routing, Rng(1));
  HealthMonitor monitor(engine, network);
  network.send(src, dst, 2 * params.chunk_bytes);

  const int port = topo.local_port_to(0, 1);
  const OutPort& op = network.port(0, port);
  int observed = 0;
  for (SimTime t = 0; engine.pending() > 0 && t < 100 * units::kMicrosecond; ++t) {
    engine.run_until(t);
    if (op.queue.empty() || op.credits[0] >= op.queue.front().bytes) continue;
    ++observed;
    const HealthReport report = monitor.capture(t);
    ASSERT_EQ(report.stuck_ports.size(), 1u) << report.to_string();
    EXPECT_EQ(report.stuck_ports[0].router, 0);
    EXPECT_EQ(report.stuck_ports[0].port, port);
    EXPECT_EQ(report.stuck_ports[0].blocked_vcs, 1);
    EXPECT_NE(report.to_string().find("1 blocked VC(s)"), std::string::npos);
  }
  EXPECT_GT(observed, 0) << "the blocked-port state never occurred";
}

TEST(Health, DeadlockThrowsStructuredReport) {
  // Rank 0 waits for a message rank 1 never sends: the event queue drains
  // with work remaining — a hard deadlock. The exception must carry the
  // monitor's diagnostic dump, not just a rank count.
  Trace trace(2);
  trace.rank(0).push_back(TraceOp::recv(1, 4096, 7));
  const Workload app{"unmatched-recv", trace};
  ExperimentOptions options;
  options.topo = TopoParams::tiny();
  options.health.interval = 10 * units::kMicrosecond;
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};

  try {
    run_experiment(app, config, options);
    FAIL() << "expected a deadlock exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlocked"), std::string::npos) << what;
    EXPECT_NE(what.find("1/2 ranks finished"), std::string::npos) << what;
    EXPECT_NE(what.find("simulation health report"), std::string::npos) << what;
    EXPECT_NE(what.find("DEADLOCK"), std::string::npos) << what;
  }
}

TEST(Health, DeadlockReportedEvenWithMonitorDisabled) {
  Trace trace(2);
  trace.rank(0).push_back(TraceOp::recv(1, 4096, 7));
  const Workload app{"unmatched-recv", trace};
  ExperimentOptions options;
  options.topo = TopoParams::tiny();
  options.health.enabled = false;  // no periodic ticks; capture happens post-mortem
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};

  try {
    run_experiment(app, config, options);
    FAIL() << "expected a deadlock exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("simulation health report"), std::string::npos) << what;
    EXPECT_NE(what.find("DEADLOCK"), std::string::npos) << what;
  }
}

TEST(Health, EventLimitWatchdogAttachesReport) {
  Rng rng(5);
  const Workload app{"perm", make_permutation_trace(16, 64 * units::kKiB, rng)};
  ExperimentOptions options;
  options.topo = TopoParams::tiny();
  options.max_events = 500;  // far too few to finish
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};

  const ExperimentResult result = run_experiment(app, config, options);
  EXPECT_TRUE(result.hit_event_limit);
  ASSERT_FALSE(result.health_report.empty());
  EXPECT_NE(result.health_report.find("simulation health report"), std::string::npos);
}

TEST(Health, CleanRunLeavesNoReport) {
  Rng rng(6);
  const Workload app{"perm", make_permutation_trace(16, 16 * units::kKiB, rng)};
  ExperimentOptions options;
  options.topo = TopoParams::tiny();
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};

  const ExperimentResult result = run_experiment(app, config, options);
  EXPECT_TRUE(result.conservation_ok);
  EXPECT_FALSE(result.stalled);
  EXPECT_TRUE(result.health_report.empty());
}

}  // namespace
}  // namespace dfly
