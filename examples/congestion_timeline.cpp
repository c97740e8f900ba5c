// Example: watch congestion evolve in time while a bursty background job
// shares the machine with a target application — the dynamics behind the
// paper's Figs. 9-10, as a timeline instead of end-of-run aggregates.
//
// Usage: congestion_timeline [app_ranks] [burst_KiB] [sample_us]
//   defaults: 512, 256, 10
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "place/placement.hpp"
#include "replay/replay.hpp"
#include "routing/adaptive.hpp"
#include "util/table.hpp"
#include "workload/background.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace dfly;
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 512;
  const Bytes burst = (argc > 2 ? std::atoll(argv[2]) : 256) * units::kKiB;
  const SimTime sample = (argc > 3 ? std::atoll(argv[3]) : 10) * units::kMicrosecond;
  if (sample <= 0) {
    std::fprintf(stderr, "congestion_timeline: sample_us must be positive\n");
    return 1;
  }

  const TopoParams params = TopoParams::theta();
  const DragonflyTopology topo(params);
  Engine engine;
  AdaptiveRouting routing(topo);
  Network network(engine, topo, NetworkParams::theta(), routing, Rng(1));

  // Target app: 3 ring sweeps on a random-node placement.
  const Trace trace = make_ring_trace(ranks, 128 * units::kKiB, 3);
  Rng rng(2);
  const Placement placement = make_placement(PlacementKind::RandomNode, params, ranks, rng);
  ReplayEngine replay(engine, network, trace, placement);

  // Bursty neighbor on everything else.
  BackgroundSpec spec;
  spec.pattern = BackgroundSpec::Pattern::Bursty;
  spec.message_bytes = burst;
  spec.burst_fanout = 8;
  spec.interval = 100 * units::kMicrosecond;
  BackgroundDriver background(engine, network, remaining_nodes(params, placement), spec, Rng(3));

  bool app_done = false;
  replay.set_completion_callback([&](SimTime) {
    background.request_stop();
    app_done = true;
  });

  std::printf("app: %d-rank ring | background: %lld KiB x%d bursts every %.1f ms | sampling %lld us\n",
              ranks, static_cast<long long>(burst / units::kKiB), spec.burst_fanout,
              units::to_ms(spec.interval), static_cast<long long>(sample / units::kMicrosecond));

  background.start();
  replay.start();

  // Pause the run every `sample` until the app completes and read the
  // network's counters and output queues at each pause.
  Table table("Network state over time (bursts appear as queue spikes)");
  table.set_columns({"time (ms)", "delivered (MB)", "throughput (GB/s)", "queued (MB)",
                     "queued local (MB)", "queued global (MB)", "queued terminal (MB)",
                     "msgs in flight"});
  Bytes last_delivered = 0;
  for (SimTime t = 0;; t += sample) {
    engine.run_slice(t);
    if (app_done || engine.pending() == 0) break;
    Bytes local = 0, global = 0, terminal = 0;
    for (const OutPort& port : network.ports()) {
      switch (port.kind) {
        case PortKind::Terminal: terminal += port.queued_bytes; break;
        case PortKind::LocalRow:
        case PortKind::LocalCol: local += port.queued_bytes; break;
        case PortKind::Global: global += port.queued_bytes; break;
      }
    }
    const Bytes delivered = network.bytes_delivered();
    // bytes/ns == GB/s
    const double gbps = t > 0 ? static_cast<double>(delivered - last_delivered) /
                                    static_cast<double>(sample)
                              : 0.0;
    last_delivered = delivered;
    table.add_row({Table::num(units::to_ms(t), 3), Table::num(units::to_mb(delivered), 2),
                   Table::num(gbps, 2), Table::num(units::to_mb(local + global + terminal), 3),
                   Table::num(units::to_mb(local), 3), Table::num(units::to_mb(global), 3),
                   Table::num(units::to_mb(terminal), 3),
                   Table::num(static_cast<std::int64_t>(network.messages_in_flight()))});
  }
  engine.run();

  table.print_markdown(std::cout);
  std::printf("app finished at %.3f ms; background issued %.1f MB in %llu bursts\n",
              units::to_ms(replay.rank_finish_time(0)), units::to_mb(background.bytes_issued()),
              static_cast<unsigned long long>(background.ticks()));
  return 0;
}
