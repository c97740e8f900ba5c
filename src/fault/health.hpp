// Simulation health monitoring: periodic progress checks, chunk-conservation
// audits, and a structured diagnostic snapshot for deadlocked or stalled
// runs (replacing a bare "experiment deadlocked" exception with the state
// needed to debug one: which NICs are blocked, which ports hold chunks no
// downstream buffer can take, where the bytes are).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace dfly {

struct HealthOptions {
  bool enabled = true;
  /// Period between monitor ticks.
  SimTime interval = units::kMillisecond;
  /// Ticks without injection/delivery progress (while work remains) before
  /// the run is declared stalled and the engine is stopped. The default
  /// window is 250 ms simulated.
  int stall_ticks = 250;
};

/// One output port that currently holds chunks it cannot move.
struct PortDiag {
  RouterId router = -1;
  int port = -1;
  PortKind kind = PortKind::Terminal;
  Bytes queued_bytes = 0;
  int queued_chunks = 0;
  /// VCs on this port that hold queued chunks none of which fit in the VC's
  /// downstream credit. A VC short of credit with nothing queued is not
  /// blocked.
  int blocked_vcs = 0;
};

/// Snapshot of simulation health at one instant; to_string() renders the
/// multi-line diagnostic dump.
struct HealthReport {
  SimTime time = 0;
  bool deadlock = false;       ///< work remains but the event queue drained
  bool stalled = false;        ///< no progress for the configured window
  bool conservation_ok = true;
  Bytes bytes_injected = 0;
  Bytes bytes_delivered = 0;
  Bytes in_fabric_bytes = 0;
  std::size_t messages_in_flight = 0;
  std::size_t pending_events = 0;
  std::uint64_t events_processed = 0;
  int blocked_nics = 0;
  std::vector<NodeId> blocked_nic_ids;  ///< capped sample of blocked NICs
  std::vector<PortDiag> stuck_ports;    ///< capped sample of wedged ports
  std::vector<Bytes> vc_occupancy;      ///< queued bytes per VC, fabric-wide
  SchedulerStats scheduler;             ///< scheduler occupancy/promotions

  std::string to_string() const;
};

/// The audit the monitor runs each tick, as a free function for tests.
inline bool conservation_holds(Bytes injected, Bytes delivered, Bytes in_fabric) {
  return injected == delivered + in_fabric;
}

/// Periodic health checker installed on the engine. Each tick it audits chunk
/// conservation and compares the network's progress counters against the
/// previous tick; when work remains but nothing has moved for `stall_ticks`
/// ticks it captures a report and stops the engine. When the event queue is
/// about to drain with work remaining (hard deadlock), it captures a report
/// and lets the engine stop naturally. Ticks stop rescheduling once
/// `work_remaining` reports false, so the monitor never keeps a finished
/// simulation alive.
class HealthMonitor : public EventHandler {
 public:
  HealthMonitor(Engine& engine, const Network& network, HealthOptions options = {});

  /// `fn` reports whether the driver still expects progress (e.g. replay not
  /// finished). Defaults to "messages are in flight".
  void set_work_remaining(std::function<bool()> fn) { work_remaining_ = std::move(fn); }

  /// Schedules the first tick; call once before Engine::run().
  void start();

  void handle_event(SimTime now, const EventPayload& payload) override;

  /// Captures a diagnostic snapshot of the current simulation state.
  HealthReport capture(SimTime now) const;

  bool deadlock_detected() const { return deadlock_; }
  bool stalled() const { return stalled_; }
  bool conservation_failed() const { return conservation_failed_; }
  /// The report captured when deadlock/stall/conservation failure was first
  /// detected; empty-state if none occurred.
  const HealthReport& report() const { return report_; }
  std::uint64_t ticks() const { return ticks_; }

  /// Checkpoint support (src/ckpt/): progress watermarks and tick counters.
  /// The failure report is not serialized — a run that tripped deadlock or
  /// stall detection has already stopped and is not checkpointable.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  Engine& engine_;
  const Network& network_;
  HealthOptions options_;
  std::function<bool()> work_remaining_;

  Bytes last_injected_ = -1;
  Bytes last_delivered_ = -1;
  int idle_ticks_ = 0;
  std::uint64_t ticks_ = 0;
  bool deadlock_ = false;
  bool stalled_ = false;
  bool conservation_failed_ = false;
  HealthReport report_;
};

}  // namespace dfly
