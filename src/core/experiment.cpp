#include "core/experiment.hpp"

#include <filesystem>
#include <stdexcept>

#include "prof/report.hpp"
#include "replay/replay.hpp"
#include "sim/engine.hpp"

namespace dfly {

std::vector<ExperimentConfig> table1_configs() {
  std::vector<ExperimentConfig> configs;
  for (const RoutingKind routing : {RoutingKind::Minimal, RoutingKind::Adaptive})
    for (const PlacementKind placement : kAllPlacements)
      configs.push_back(ExperimentConfig{placement, routing});
  return configs;
}

std::vector<ExperimentConfig> extreme_configs() {
  return {ExperimentConfig{PlacementKind::Contiguous, RoutingKind::Minimal},
          ExperimentConfig{PlacementKind::RandomNode, RoutingKind::Minimal},
          ExperimentConfig{PlacementKind::Contiguous, RoutingKind::Adaptive},
          ExperimentConfig{PlacementKind::RandomNode, RoutingKind::Adaptive}};
}

ExperimentResult run_experiment(const Workload& workload, const ExperimentConfig& config,
                                const ExperimentOptions& options,
                                const DragonflyTopology* shared_topo) {
  if (options.threads != 0)
    throw std::invalid_argument("run_experiment: options.threads must be 0 (serial engine)");
  if (!options.faults.empty())
    throw std::invalid_argument("run_experiment: options.faults must be empty");
  // Optionally reuse a caller-built topology: it is immutable during a run,
  // so concurrent experiments can share it.
  std::optional<DragonflyTopology> local_topo;
  if (shared_topo == nullptr) local_topo.emplace(options.topo);
  const DragonflyTopology& topo = local_topo ? *local_topo : *shared_topo;

  // The RNG tree: placement draws depend on (seed, placement kind) only, so a
  // given policy selects the same nodes under minimal and adaptive routing —
  // the comparison the paper makes. Network/background streams get their own
  // forks.
  Rng master(options.seed);
  Rng placement_rng(options.seed ^ (static_cast<std::uint64_t>(config.placement) + 0x1000));
  const Placement placement =
      make_placement(config.placement, options.topo, workload.trace.ranks(), placement_rng);

  Trace trace = workload.trace;  // scaling mutates; keep the workload pristine
  if (options.msg_scale != 1.0) trace.scale_message_sizes(options.msg_scale);

  // The profiler is constructed before the engine (and so destroyed after
  // it): the engine and the network hold raw pointers into it for the whole
  // run.
  std::optional<prof::Profiler> profiler;
  if (options.prof.enabled) profiler.emplace(options.prof);
  prof::Profiler* const prof_ptr = profiler ? &*profiler : nullptr;

  Engine engine;
  if (options.max_events) engine.set_event_limit(options.max_events);
  const std::unique_ptr<RoutingAlgorithm> routing = make_routing(config.routing, topo);
  engine.set_profiler(prof_ptr);
  Network network(engine, topo, options.net, *routing, master.fork(1));
  ReplayEngine replay(engine, network, trace, placement, options.replay);

  // Declared after the network/routing it hooks into, so the destructor
  // unhooks while both are still alive.
  std::optional<RunTelemetry> telemetry;
  if (options.telemetry.enabled) telemetry.emplace(engine, network, *routing, options.telemetry);

  std::optional<BackgroundDriver> background;
  if (options.background) {
    std::vector<NodeId> rest = remaining_nodes(options.topo, placement);
    // A full-machine app leaves the background job no nodes to run on; the
    // job then simply does not exist (the interference harness probes exactly
    // this boundary). The driver itself rejects < 2 nodes.
    if (rest.size() >= 2) {
      background.emplace(engine, network, std::move(rest), *options.background, master.fork(2));
      background->start();
    }
  }
  if (background || telemetry) {
    // Both the background driver and the counter probe reschedule themselves;
    // stop them when the replayed application finishes so they never keep a
    // finished simulation alive.
    replay.set_completion_callback([&background, &telemetry](SimTime) {
      if (background) background->request_stop();
      if (telemetry) telemetry->request_stop();
    });
  }

  HealthMonitor monitor(engine, network, options.health);
  monitor.set_work_remaining([&replay] { return !replay.finished(); });
  if (options.health.enabled) monitor.start();
  if (telemetry) {
    register_health_counters(telemetry->registry(), monitor);
    telemetry->start();
  }

  replay.start();

  if (prof_ptr != nullptr) {
    prof_ptr->begin_run();
    prof_ptr->throughput().start(engine.now(), engine.events_processed(),
                                 network.chunks_forwarded());
  }
  engine.run();
  if (prof_ptr != nullptr) {
    prof_ptr->throughput().sample(engine.now(), engine.events_processed(),
                                  network.chunks_forwarded());
    prof_ptr->end_run();
  }
  network.finalize(engine.now());

  if (!replay.finished() && !engine.hit_event_limit() && !monitor.stalled()) {
    // Hard deadlock (or a conservation failure stopped the engine): report
    // the structured simulation state, not just the rank count.
    HealthReport report = (monitor.deadlock_detected() || monitor.conservation_failed())
                              ? monitor.report()
                              : monitor.capture(engine.now());
    if (!monitor.conservation_failed()) report.deadlock = true;
    throw std::runtime_error("experiment deadlocked (" + config.name() + "): engine drained with " +
                             std::to_string(replay.finished_ranks()) + "/" +
                             std::to_string(trace.ranks()) + " ranks finished\n" +
                             report.to_string());
  }

  ExperimentResult result;
  result.config = config.name();
  result.metrics = collect_metrics(network, replay, placement, engine);
  result.background_bytes = background ? background->bytes_issued() : 0;
  result.hit_event_limit = engine.hit_event_limit();
  result.stalled = monitor.stalled();
  result.conservation_ok = network.conservation_ok();
  if (monitor.stalled() || monitor.conservation_failed())
    result.health_report = monitor.report().to_string();
  else if (engine.hit_event_limit())
    result.health_report = monitor.capture(engine.now()).to_string();
  if (telemetry) {
    telemetry->finish(engine.now());
    result.trace_chunks_seen = telemetry->tracer().chunks_seen();
    result.trace_chunks_sampled = telemetry->tracer().chunks_sampled();
    prof::ProfScope prof_scope(prof_ptr, prof::Subsystem::TelemetryExport);
    result.telemetry_dir = export_run_artifacts(*telemetry, result, network, engine.now());
  }
  if (profiler && !options.telemetry.out_dir.empty()) {
    // prof.json lands next to metrics.json; being wall-clock data it is the
    // one artifact allowed to differ between otherwise identical runs.
    const std::string path =
        (std::filesystem::path(options.telemetry.out_dir) / result.config / "prof.json").string();
    prof::write_prof_json(path, *profiler, result.config);
  }
  return result;
}

}  // namespace dfly
