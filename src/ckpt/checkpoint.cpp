#include "ckpt/checkpoint.hpp"

#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "fault/health.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "replay/replay.hpp"
#include "sim/engine.hpp"
#include "workload/background.hpp"

namespace dfly::ckpt {

namespace {

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("snapshot: " + what);
}

// --- handler registry ------------------------------------------------------
// Queue events reference handlers by their index in this table. The order is
// part of the format: extend only by appending.
std::vector<EventHandler*> handler_table(const SimSnapshotParts& parts) {
  return {parts.network, parts.replay, parts.background, parts.monitor,
          parts.telemetry != nullptr ? &parts.telemetry->probe() : nullptr};
}

std::uint8_t presence_mask(const SimSnapshotParts& parts) {
  std::uint8_t mask = 0;
  if (parts.background != nullptr) mask |= 1u << 0;
  if (parts.monitor != nullptr) mask |= 1u << 1;
  if (parts.telemetry != nullptr) mask |= 1u << 2;
  return mask;
}

void require_parts(const SimSnapshotParts& parts) {
  if (parts.engine == nullptr || parts.network == nullptr || parts.replay == nullptr)
    throw std::logic_error("checkpoint: engine/network/replay are mandatory");
}

}  // namespace

void save_checkpoint(const std::string& path, const SimSnapshotParts& parts) {
  require_parts(parts);
  const std::vector<EventHandler*> table = handler_table(parts);
  const auto id_of = [&table](EventHandler* handler) -> std::uint32_t {
    for (std::uint32_t id = 0; id < table.size(); ++id) {
      if (table[id] != nullptr && table[id] == handler) return id;
    }
    throw std::runtime_error("snapshot: event queue holds a handler outside the registry");
  };

  Writer w;
  w.str(parts.config);
  w.u64(parts.seed);
  w.i64(parts.engine->now());
  w.u64(parts.engine->events_processed());
  w.u64(parts.engine->pending());
  w.u8(presence_mask(parts));

  parts.engine->save_state(w, id_of);
  parts.network->save_state(w);
  parts.replay->save_state(w);
  if (parts.background != nullptr) parts.background->save_state(w);
  if (parts.monitor != nullptr) parts.monitor->save_state(w);
  if (parts.telemetry != nullptr) parts.telemetry->save_state(w);

  write_snapshot_file(path, SnapshotKind::SimState, w.buffer());
}

void load_checkpoint(const std::string& path, SimSnapshotParts& parts) {
  require_parts(parts);
  const std::string payload = read_snapshot_file(path, SnapshotKind::SimState);
  Reader r(payload);

  const std::string config = r.str();
  const std::uint64_t seed = r.u64();
  r.i64();  // summary time (engine re-reads its own authoritative copy)
  r.u64();  // summary events processed
  r.u64();  // summary pending events
  const std::uint8_t mask = r.u8();
  if (config != parts.config)
    corrupt("checkpoint is for config '" + config + "', not '" + parts.config + "'");
  if (seed != parts.seed) corrupt("checkpoint was taken with a different seed");
  if (mask != presence_mask(parts))
    corrupt("subsystem lineup differs from the checkpointed run "
            "(background/health/telemetry mismatch)");

  const std::vector<EventHandler*> table = handler_table(parts);
  const auto handler_of = [&table](std::uint32_t id) -> EventHandler* {
    if (id >= table.size() || table[id] == nullptr)
      throw std::runtime_error("snapshot: event references an unknown handler id");
    return table[id];
  };

  parts.engine->load_state(r, handler_of);
  parts.network->load_state(r);
  parts.replay->load_state(r);
  if (parts.background != nullptr) parts.background->load_state(r);
  if (parts.monitor != nullptr) parts.monitor->load_state(r);
  if (parts.telemetry != nullptr) parts.telemetry->load_state(r);
  r.expect_end();
}

CheckpointInfo inspect_checkpoint(const std::string& path) {
  const std::string payload = read_snapshot_file(path, SnapshotKind::SimState);
  Reader r(payload);
  CheckpointInfo info;
  info.config = r.str();
  info.seed = r.u64();
  info.time = r.i64();
  info.events_processed = r.u64();
  info.pending_events = r.u64();
  const std::uint8_t mask = r.u8();
  info.has_background = (mask & (1u << 0)) != 0;
  info.has_monitor = (mask & (1u << 1)) != 0;
  info.has_telemetry = (mask & (1u << 2)) != 0;
  return info;
}

// --- finished-run results (run_matrix sweep markers) ------------------------

namespace {

void save_dvec(Writer& w, const std::vector<double>& v) {
  w.size(v.size());
  for (const double x : v) w.f64(x);
}

std::vector<double> load_dvec(Reader& r) {
  const std::size_t n = r.count(8);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

}  // namespace

void save_result(const std::string& path, const ExperimentResult& result) {
  Writer w;
  w.str(result.config);
  const RunMetrics& m = result.metrics;
  save_dvec(w, m.comm_time_ms);
  save_dvec(w, m.avg_hops);
  save_dvec(w, m.local_traffic_mb);
  save_dvec(w, m.global_traffic_mb);
  save_dvec(w, m.local_saturation_ms);
  save_dvec(w, m.global_saturation_ms);
  w.f64(m.makespan_ms);
  w.u64(m.events);
  w.u64(m.chunks);
  w.i64(m.bytes_delivered);
  w.size(m.scheduler.buckets);
  w.i64(m.scheduler.bucket_width);
  w.size(m.scheduler.calendar_events);
  w.size(m.scheduler.overflow_events);
  w.size(m.scheduler.peak_pending);
  w.u64(m.scheduler.resizes);
  w.u64(m.scheduler.overflow_promotions);
  w.i64(result.background_bytes);
  w.boolean(result.hit_event_limit);
  w.boolean(result.stalled);
  w.boolean(result.conservation_ok);
  w.str(result.health_report);
  w.str(result.telemetry_dir);
  w.u64(result.trace_chunks_seen);
  w.u64(result.trace_chunks_sampled);
  write_snapshot_file(path, SnapshotKind::SweepResult, w.buffer());
}

ExperimentResult load_result(const std::string& path) {
  const std::string payload = read_snapshot_file(path, SnapshotKind::SweepResult);
  Reader r(payload);
  ExperimentResult result;
  result.config = r.str();
  RunMetrics& m = result.metrics;
  m.comm_time_ms = load_dvec(r);
  m.avg_hops = load_dvec(r);
  m.local_traffic_mb = load_dvec(r);
  m.global_traffic_mb = load_dvec(r);
  m.local_saturation_ms = load_dvec(r);
  m.global_saturation_ms = load_dvec(r);
  m.makespan_ms = r.f64();
  m.events = r.u64();
  m.chunks = r.u64();
  m.bytes_delivered = r.i64();
  m.scheduler.buckets = r.u64();
  m.scheduler.bucket_width = r.i64();
  m.scheduler.calendar_events = r.u64();
  m.scheduler.overflow_events = r.u64();
  m.scheduler.peak_pending = r.u64();
  m.scheduler.resizes = r.u64();
  m.scheduler.overflow_promotions = r.u64();
  result.background_bytes = r.i64();
  result.hit_event_limit = r.boolean();
  result.stalled = r.boolean();
  result.conservation_ok = r.boolean();
  result.health_report = r.str();
  result.telemetry_dir = r.str();
  result.trace_chunks_seen = r.u64();
  result.trace_chunks_sampled = r.u64();
  r.expect_end();
  return result;
}

}  // namespace dfly::ckpt
