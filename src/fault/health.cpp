#include "fault/health.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace dfly {

namespace {
constexpr int kMaxListed = 16;  // cap per-item lists in the report
}

std::string HealthReport::to_string() const {
  std::ostringstream out;
  out << "=== simulation health report @ " << time << " ns ===\n";
  out << "state: " << (deadlock ? "DEADLOCK" : stalled ? "STALLED" : "running")
      << ", conservation " << (conservation_ok ? "ok" : "VIOLATED") << "\n";
  out << "bytes: injected=" << bytes_injected << " delivered=" << bytes_delivered
      << " in-fabric=" << in_fabric_bytes << "\n";
  out << "messages in flight: " << messages_in_flight << ", pending events: " << pending_events
      << ", events processed: " << events_processed << "\n";
  out << "scheduler: buckets=" << scheduler.buckets << " width=" << scheduler.bucket_width
      << "ns calendar=" << scheduler.calendar_events << " overflow=" << scheduler.overflow_events
      << " promotions=" << scheduler.overflow_promotions
      << " peak=" << scheduler.peak_pending << "\n";
  out << "blocked NICs: " << blocked_nics;
  if (!blocked_nic_ids.empty()) {
    out << " [";
    for (std::size_t i = 0; i < blocked_nic_ids.size(); ++i)
      out << (i ? " " : "") << blocked_nic_ids[i];
    if (blocked_nics > static_cast<int>(blocked_nic_ids.size())) out << " ...";
    out << "]";
  }
  out << "\n";
  out << "stuck ports: " << stuck_ports.size() << (stuck_ports.size() == kMaxListed ? "+" : "")
      << "\n";
  for (const PortDiag& pd : stuck_ports) {
    out << "  router " << pd.router << " port " << pd.port << " (" << dfly::to_string(pd.kind)
        << "): " << pd.queued_chunks << " chunks / " << pd.queued_bytes << " B queued, "
        << pd.blocked_vcs << " blocked VC(s)\n";
  }
  out << "per-VC queued bytes:";
  for (std::size_t vc = 0; vc < vc_occupancy.size(); ++vc) {
    if (vc_occupancy[vc] != 0) out << " vc" << vc << "=" << vc_occupancy[vc];
  }
  out << "\n";
  return out.str();
}

HealthMonitor::HealthMonitor(Engine& engine, const Network& network, HealthOptions options)
    : engine_(engine), network_(network), options_(options) {
  if (options_.interval <= 0) throw std::invalid_argument("health interval must be positive");
  if (options_.stall_ticks <= 0) throw std::invalid_argument("stall_ticks must be positive");
  work_remaining_ = [this] { return network_.messages_in_flight() > 0; };
}

void HealthMonitor::start() {
  engine_.schedule_after(options_.interval, this, EventPayload{});
}

HealthReport HealthMonitor::capture(SimTime now) const {
  HealthReport r;
  r.time = now;
  r.conservation_ok = network_.conservation_ok();
  r.bytes_injected = network_.bytes_injected();
  r.bytes_delivered = network_.bytes_delivered();
  r.in_fabric_bytes = network_.in_fabric_bytes();
  r.messages_in_flight = network_.messages_in_flight();
  r.pending_events = engine_.pending();
  r.events_processed = engine_.events_processed();
  r.scheduler = engine_.scheduler_stats();

  const DragonflyTopology& topo = network_.topology();
  const int nodes = topo.params().total_nodes();
  for (NodeId n = 0; n < nodes; ++n) {
    if (network_.nic(n).blocked_since >= 0) {
      ++r.blocked_nics;
      if (static_cast<int>(r.blocked_nic_ids.size()) < kMaxListed) r.blocked_nic_ids.push_back(n);
    }
  }

  const int routers = topo.params().total_routers();
  for (RouterId rid = 0; rid < routers && static_cast<int>(r.stuck_ports.size()) < kMaxListed;
       ++rid) {
    for (int p = 0; p < topo.ports_per_router(); ++p) {
      const OutPort& op = network_.port(rid, p);
      if (op.queue.empty()) continue;
      PortDiag pd;
      pd.router = rid;
      pd.port = p;
      pd.kind = op.kind;
      pd.queued_bytes = op.queued_bytes;
      pd.queued_chunks = static_cast<int>(op.queue.size());
      std::uint32_t queued_vcs = 0, sendable_vcs = 0;
      for (const QueuedChunk& e : op.queue) {
        queued_vcs |= 1u << e.vc;
        if (op.is_terminal() || op.credits[e.vc] >= e.bytes) sendable_vcs |= 1u << e.vc;
      }
      pd.blocked_vcs = std::popcount(queued_vcs & ~sendable_vcs);
      // Report only ports that look wedged: at least one VC holds chunks none
      // of which fit downstream (an actively draining port is healthy).
      const bool wedged = op.is_terminal() ? op.blocked_since >= 0 : pd.blocked_vcs > 0;
      if (!wedged) continue;
      r.stuck_ports.push_back(pd);
      if (static_cast<int>(r.stuck_ports.size()) >= kMaxListed) break;
    }
  }

  r.vc_occupancy.assign(kMaxRouteHops, 0);
  for (const OutPort& op : network_.ports())
    for (const QueuedChunk& e : op.queue) r.vc_occupancy[e.vc] += e.bytes;
  return r;
}

void HealthMonitor::handle_event(SimTime now, const EventPayload& /*payload*/) {
  ++ticks_;
  if (!network_.conservation_ok() && !conservation_failed_) {
    conservation_failed_ = true;
    report_ = capture(now);
    engine_.request_stop();
    return;
  }
  const bool work = work_remaining_();
  if (!work) return;  // simulation is wrapping up; let the engine drain

  if (engine_.pending() == 0) {
    // This tick is the only remaining event: nothing else can ever make
    // progress again. Capture the evidence and let run() return.
    deadlock_ = true;
    report_ = capture(now);
    report_.deadlock = true;
    return;
  }

  const Bytes injected = network_.bytes_injected();
  const Bytes delivered = network_.bytes_delivered();
  if (injected == last_injected_ && delivered == last_delivered_) {
    if (++idle_ticks_ >= options_.stall_ticks) {
      stalled_ = true;
      report_ = capture(now);
      report_.stalled = true;
      engine_.request_stop();
      return;
    }
  } else {
    idle_ticks_ = 0;
    last_injected_ = injected;
    last_delivered_ = delivered;
  }
  engine_.schedule_after(options_.interval, this, EventPayload{});
}

}  // namespace dfly
