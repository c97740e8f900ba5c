#include "prof/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace dfly::prof {

void ProfOptions::validate() const {
  if (hist_bucket_bits < 0 || hist_bucket_bits > 8)
    throw std::invalid_argument("prof: hist_bucket_bits must be in [0, 8]");
}

const char* to_string(Subsystem s) {
  switch (s) {
    case Subsystem::EventDispatch: return "event_dispatch";
    case Subsystem::Routing: return "routing";
    case Subsystem::CheckpointIo: return "checkpoint_io";
    case Subsystem::TelemetryExport: return "telemetry_export";
    case Subsystem::kCount: break;
  }
  return "?";
}

// --- ThroughputTracker -----------------------------------------------------

void ThroughputTracker::start(SimTime sim_ns, std::uint64_t events, std::uint64_t chunks) {
  start_at(Profiler::now_ns(), sim_ns, events, chunks);
}

void ThroughputTracker::sample(SimTime sim_ns, std::uint64_t events, std::uint64_t chunks) {
  sample_at(Profiler::now_ns(), sim_ns, events, chunks);
}

void ThroughputTracker::start_at(std::int64_t wall_ns, SimTime sim_ns, std::uint64_t events,
                                 std::uint64_t chunks) {
  started_ = true;
  samples_ = 0;
  first_ = last_ = window_origin_ = Point{wall_ns, sim_ns, events, chunks};
}

void ThroughputTracker::sample_at(std::int64_t wall_ns, SimTime sim_ns, std::uint64_t events,
                                  std::uint64_t chunks) {
  if (!started_) {
    start_at(wall_ns, sim_ns, events, chunks);
    return;
  }
  // The previous `last_` becomes history; the ring keeps the last kWindow of
  // them so the rolling origin trails the newest sample by at most kWindow.
  ring_[samples_ % kWindow] = last_;
  ++samples_;
  last_ = Point{wall_ns, sim_ns, events, chunks};
  window_origin_ = samples_ <= kWindow ? first_ : ring_[samples_ % kWindow];
}

ThroughputTracker::Rates ThroughputTracker::rates(const Point& a, const Point& b) {
  Rates r;
  const double wall_s = static_cast<double>(b.wall_ns - a.wall_ns) / 1e9;
  if (wall_s <= 0.0) return r;
  r.events_per_sec = static_cast<double>(b.events - a.events) / wall_s;
  r.chunks_per_sec = static_cast<double>(b.chunks - a.chunks) / wall_s;
  r.sim_per_wall = static_cast<double>(b.sim_ns - a.sim_ns) / 1e9 / wall_s;
  return r;
}

// --- Profiler --------------------------------------------------------------

Profiler::Profiler(const ProfOptions& options, int lanes, int threads)
    : options_(options), dispatch_hist_(options.hist_bucket_bits) {
  options_.validate();
  if (lanes != 1 || threads != 0)
    throw std::invalid_argument("prof: the engine is serial (lanes must be 1, threads 0)");
}

std::int64_t Profiler::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Profiler::add(Subsystem s, std::int64_t ns) {
  ns_[static_cast<int>(s)] += std::max<std::int64_t>(ns, 0);
  ++calls_[static_cast<int>(s)];
}

void Profiler::record_dispatch(std::int64_t ns) {
  dispatch_hist_.add(ns);
  add(Subsystem::EventDispatch, ns);
}

void Profiler::begin_run() { run_begin_ns_ = now_ns(); }

void Profiler::end_run() { run_wall_ns_ += now_ns() - run_begin_ns_; }

}  // namespace dfly::prof
