// Tests for output-port arbitration policies.
#include <gtest/gtest.h>

#include <vector>

#include "fixed_routing.hpp"
#include "net/network.hpp"
#include "replay/replay.hpp"
#include "routing/adaptive.hpp"
#include "workload/synthetic.hpp"

namespace dfly {
namespace {

SimTime run_heavy_traffic(Arbitration policy, std::uint64_t* events_out = nullptr) {
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  NetworkParams params = NetworkParams::theta();
  params.arbitration = policy;
  AdaptiveRouting routing(topo);
  Network network(engine, topo, params, routing, Rng(1));
  Rng rng(2);
  const Trace trace = make_permutation_trace(40, 512 * units::kKiB, rng);
  Rng place_rng(3);
  const Placement placement =
      make_placement(PlacementKind::RandomNode, topo.params(), 40, place_rng);
  ReplayEngine replay(engine, network, trace, placement);
  replay.start();
  engine.set_event_limit(200'000'000);
  engine.run();
  EXPECT_FALSE(engine.hit_event_limit());
  EXPECT_TRUE(replay.finished());
  if (events_out) *events_out = engine.events_processed();
  return engine.now();
}

TEST(Arbitration, BothPoliciesDrainHeavyTraffic) {
  EXPECT_GT(run_heavy_traffic(Arbitration::FirstSendable), 0);
  EXPECT_GT(run_heavy_traffic(Arbitration::RoundRobinVc), 0);
}

TEST(Arbitration, PoliciesProduceDifferentSchedules) {
  std::uint64_t ev_first = 0, ev_rr = 0;
  const SimTime t_first = run_heavy_traffic(Arbitration::FirstSendable, &ev_first);
  const SimTime t_rr = run_heavy_traffic(Arbitration::RoundRobinVc, &ev_rr);
  // Same traffic, different interleavings: at least one observable differs.
  EXPECT_TRUE(t_first != t_rr || ev_first != ev_rr);
}

TEST(Arbitration, RoundRobinIsDeterministic) {
  const SimTime a = run_heavy_traffic(Arbitration::RoundRobinVc);
  const SimTime b = run_heavy_traffic(Arbitration::RoundRobinVc);
  EXPECT_EQ(a, b);
}

// The bytes of each transmission on the first port of a 2.25-chunk message's
// route, in the order they leave. The downstream VC buffer holds 1.5 chunks,
// so after the first chunk departs the second (full-size) one is blocked on
// credits while the 0.25-chunk tail queued behind it on the same VC fits.
std::vector<Bytes> same_vc_send_order(Arbitration policy) {
  Engine engine;
  DragonflyTopology topo(TopoParams::tiny());
  NetworkParams params = NetworkParams::theta();
  params.arbitration = policy;
  params.local_vc_buffer = params.chunk_bytes * 3 / 2;
  FixedRouting routing(topo);
  const RouterId from = 0, to = 1;  // same row of group 0
  const NodeId src = 0, dst = 2 * topo.params().nodes_per_router - 1;
  routing.pin(src, dst, {from, to});
  Network network(engine, topo, params, routing, Rng(1));
  network.send(src, dst, 2 * params.chunk_bytes + params.chunk_bytes / 4);

  const OutPort& port = network.port(from, topo.local_port_to(from, to));
  std::vector<Bytes> sent;
  Bytes traffic = 0;
  for (SimTime t = 0; engine.pending() > 0 && t < 100 * units::kMicrosecond; ++t) {
    engine.run_until(t);
    if (port.traffic != traffic) {
      sent.push_back(port.traffic - traffic);
      traffic = port.traffic;
    }
  }
  EXPECT_EQ(network.bytes_delivered(), 2 * params.chunk_bytes + params.chunk_bytes / 4);
  return sent;
}

TEST(Arbitration, PartialChunkBypassesCreditBlockedChunkOnItsVc) {
  const Bytes full = NetworkParams::theta().chunk_bytes;
  const std::vector<Bytes> expected{full, full / 4, full};
  EXPECT_EQ(same_vc_send_order(Arbitration::FirstSendable), expected);
  EXPECT_EQ(same_vc_send_order(Arbitration::RoundRobinVc), expected);
}

TEST(Arbitration, Names) {
  EXPECT_STREQ(to_string(Arbitration::FirstSendable), "first-sendable");
  EXPECT_STREQ(to_string(Arbitration::RoundRobinVc), "round-robin-vc");
}

}  // namespace
}  // namespace dfly
