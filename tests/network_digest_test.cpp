// Differential pin of the network model on the paper's three workloads.
//
// Runs CR, AMG and FB at reduced message scale on the full Theta topology
// under cont-min and rand-adp and hashes everything the study reports from
// the network: the event count, the makespan, every rank's communication
// time, every channel's traffic and saturation time, every NIC's saturation
// time, and the fabric at one mid-run pause: every port's queued bytes,
// busy-until time and per-VC credits, every NIC's queue length and credits,
// and the bytes in flight. The run and channel constants were generated
// before the network's state was rebuilt around a channel-indexed port
// array, the mid-run ones before mid-run checkpointing was removed; a change
// that moves them changes seeded results and must re-baseline the fig3
// goldens with them (tests/golden/README.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <memory>
#include <string>

#include "core/experiment.hpp"
#include "fnv1a.hpp"
#include "net/network.hpp"
#include "place/placement.hpp"
#include "replay/replay.hpp"
#include "routing/algorithm.hpp"
#include "sim/engine.hpp"
#include "workload/workload.hpp"

namespace dfly {
namespace {

struct Digests {
  std::uint64_t run;       ///< events, makespan, per-rank communication times
  std::uint64_t channels;  ///< per-channel traffic and saturation, per-NIC saturation
  std::uint64_t midrun;    ///< port, NIC and in-flight state at the mid-run pause
};

Workload paper_workload(const std::string& app) {
  if (app == "cr") {
    CrParams p;
    p.iterations = 1;
    p.scale = 0.1;
    return make_crystal_router(p);
  }
  if (app == "amg") {
    AmgParams p;
    p.vcycles = 1;
    p.scale = 0.5;
    return make_amg(p);
  }
  FbParams p;
  p.iterations = 1;
  p.scale = 0.1;
  return make_fill_boundary(p);
}

/// One run in run_experiment's construction order and RNG tree, paused once
/// at `snapshot_at` to hash the fabric's state.
Digests run_digests(const Workload& workload, const ExperimentConfig& config, SimTime snapshot_at) {
  const std::uint64_t seed = 42;
  const TopoParams params = TopoParams::theta();
  const DragonflyTopology topo(params);
  Rng master(seed);
  Rng placement_rng(seed ^ (static_cast<std::uint64_t>(config.placement) + 0x1000));
  const Placement placement =
      make_placement(config.placement, params, workload.trace.ranks(), placement_rng);

  Engine engine;
  const std::unique_ptr<RoutingAlgorithm> routing = make_routing(config.routing, topo);
  Network network(engine, topo, NetworkParams::theta(), *routing, master.fork(1));
  ReplayEngine replay(engine, network, workload.trace, placement);
  replay.start();

  engine.run_slice(snapshot_at);
  EXPECT_GT(engine.pending(), 0u) << config.name() << ": snapshot point past the end of the run";
  EXPECT_GT(network.in_fabric_bytes(), 0) << config.name() << ": empty fabric at the snapshot";
  Fnv1a midrun;
  for (const OutPort& op : network.ports()) {
    midrun.add(static_cast<std::uint64_t>(op.queued_bytes));
    midrun.add(static_cast<std::uint64_t>(op.busy_until));
    for (const std::int32_t c : op.credits) midrun.add(static_cast<std::uint64_t>(c));
  }
  for (NodeId n = 0; n < params.total_nodes(); ++n) {
    midrun.add(network.nic(n).queue.size());
    midrun.add(static_cast<std::uint64_t>(network.nic(n).credits));
  }
  midrun.add(static_cast<std::uint64_t>(network.in_fabric_bytes()));

  engine.run();
  network.finalize(engine.now());
  EXPECT_TRUE(replay.finished()) << config.name();
  EXPECT_TRUE(network.conservation_ok()) << config.name();

  Fnv1a run;
  run.add(engine.events_processed());
  run.add(static_cast<std::uint64_t>(engine.now()));
  for (int rank = 0; rank < workload.trace.ranks(); ++rank)
    run.add(static_cast<std::uint64_t>(replay.rank_finish_time(rank)));

  Fnv1a channels;
  for (RouterId r = 0; r < params.total_routers(); ++r) {
    for (int p = 0; p < topo.ports_per_router(); ++p) {
      const OutPort& op = network.port(r, p);
      channels.add(static_cast<std::uint64_t>(op.traffic));
      channels.add(static_cast<std::uint64_t>(op.saturated_time));
    }
  }
  for (NodeId n = 0; n < params.total_nodes(); ++n)
    channels.add(static_cast<std::uint64_t>(network.nic(n).saturated_time));
  return {run.h, channels.h, midrun.h};
}

TEST(NetworkDigest, PaperWorkloadsMatchParent) {
  struct Expected {
    const char* app;
    PlacementKind placement;
    RoutingKind routing;
    SimTime snapshot_at;
    Digests digests;
  };
  const Expected expected[] = {
      {"cr", PlacementKind::Contiguous, RoutingKind::Minimal, 70000,
       {0x75d6ddf83014a65dULL, 0xae3d92d5e9c1e9eeULL, 0xf39b858992103687ULL}},
      {"cr", PlacementKind::RandomNode, RoutingKind::Adaptive, 50000,
       {0xa7428fcbce4b68d3ULL, 0x1ac3f9dbf0497d3eULL, 0xaf8ea7abd95c4195ULL}},
      {"amg", PlacementKind::Contiguous, RoutingKind::Minimal, 12000,
       {0xc6f81280f0a6bb37ULL, 0xcfbca47cb92f85ddULL, 0x5314a3e99ad066d5ULL}},
      {"amg", PlacementKind::RandomNode, RoutingKind::Adaptive, 13000,
       {0xcc43d3a11cb80fe1ULL, 0x005f315bbc0e8df3ULL, 0xac73a96a30282979ULL}},
      {"fb", PlacementKind::Contiguous, RoutingKind::Minimal, 45000,
       {0x39990bddbcf9580aULL, 0x40c87c6fcfbabca4ULL, 0x701fdd58b9b41cfdULL}},
      {"fb", PlacementKind::RandomNode, RoutingKind::Adaptive, 33000,
       {0x51ce1e76bd1dcf7fULL, 0xde41be965d69461aULL, 0x5b7d2ba6cdfb6e53ULL}},
  };
  for (const Expected& e : expected) {
    const Workload workload = paper_workload(e.app);
    const ExperimentConfig config{e.placement, e.routing};
    const Digests d = run_digests(workload, config, e.snapshot_at);
    const std::string label = std::string(e.app) + " " + config.name();
    EXPECT_EQ(d.run, e.digests.run) << label << ": run 0x" << std::hex << d.run;
    EXPECT_EQ(d.channels, e.digests.channels) << label << ": channels 0x" << std::hex << d.channels;
    EXPECT_EQ(d.midrun, e.digests.midrun) << label << ": midrun 0x" << std::hex << d.midrun;
  }
}

}  // namespace
}  // namespace dfly
