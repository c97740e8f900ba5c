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
    case Subsystem::NicRetransmit: return "nic_retransmit";
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
    : options_(options), threads_(threads), barrier_hist_(options.hist_bucket_bits) {
  options_.validate();
  if (lanes < 1) throw std::invalid_argument("prof: lanes must be >= 1");
  lanes_.resize(static_cast<std::size_t>(lanes));
  subsystems_.resize(static_cast<std::size_t>(lanes));
  batch_busy_.resize(static_cast<std::size_t>(lanes), 0);
  dispatch_hists_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) dispatch_hists_.emplace_back(options_.hist_bucket_bits);
}

std::int64_t Profiler::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Profiler::add(Subsystem s, int lane, std::int64_t ns) {
  SubsystemShard& shard = subsystems_[static_cast<std::size_t>(lane)];
  shard.ns[static_cast<int>(s)] += std::max<std::int64_t>(ns, 0);
  ++shard.calls[static_cast<int>(s)];
}

std::int64_t Profiler::subsystem_ns(Subsystem s) const {
  std::int64_t total = 0;
  for (const SubsystemShard& shard : subsystems_) total += shard.ns[static_cast<int>(s)];
  return total;
}

std::uint64_t Profiler::subsystem_calls(Subsystem s) const {
  std::uint64_t total = 0;
  for (const SubsystemShard& shard : subsystems_) total += shard.calls[static_cast<int>(s)];
  return total;
}

void Profiler::record_dispatch(int lane, std::int64_t ns) {
  LaneProf& lp = lanes_[static_cast<std::size_t>(lane)];
  lp.busy_ns += std::max<std::int64_t>(ns, 0);
  ++lp.events;
  dispatch_hists_[static_cast<std::size_t>(lane)].add(ns);
  add(Subsystem::EventDispatch, lane, ns);
}

void Profiler::record_barrier_wait(int lane, std::int64_t wait_ns) {
  LaneProf& lp = lanes_[static_cast<std::size_t>(lane)];
  lp.barrier_wait_ns += std::max<std::int64_t>(wait_ns, 0);
  ++lp.batches;
  barrier_hist_.add(wait_ns);
}

void Profiler::add_flush(int lane, std::int64_t ns) {
  lanes_[static_cast<std::size_t>(lane)].flush_ns += std::max<std::int64_t>(ns, 0);
}

void Profiler::begin_batch(const std::vector<int>& active_lanes) {
  for (const int i : active_lanes)
    batch_busy_[static_cast<std::size_t>(i)] = lanes_[static_cast<std::size_t>(i)].busy_ns;
  batch_t0_ = now_ns();
}

void Profiler::end_batch(const std::vector<int>& active_lanes) {
  const std::int64_t span = now_ns() - batch_t0_;
  for (const int i : active_lanes) {
    const std::int64_t busy =
        lanes_[static_cast<std::size_t>(i)].busy_ns - batch_busy_[static_cast<std::size_t>(i)];
    record_barrier_wait(i, std::max<std::int64_t>(span - busy, 0));
  }
}

WallHistogram Profiler::dispatch_histogram() const {
  WallHistogram merged(options_.hist_bucket_bits);
  for (const WallHistogram& h : dispatch_hists_) merged.merge(h);
  return merged;
}

void Profiler::begin_run() { run_begin_ns_ = now_ns(); }

void Profiler::end_run() { run_wall_ns_ += now_ns() - run_begin_ns_; }

double Profiler::lane_imbalance() const {
  std::int64_t busiest = 0;
  std::int64_t total = 0;
  for (const LaneProf& lp : lanes_) {
    busiest = std::max(busiest, lp.busy_ns);
    total += lp.busy_ns;
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) / static_cast<double>(lanes_.size());
  return static_cast<double>(busiest) / mean;
}

double Profiler::barrier_stall_fraction() const {
  std::int64_t busy = 0;
  std::int64_t wait = 0;
  for (const LaneProf& lp : lanes_) {
    busy += lp.busy_ns;
    wait += lp.barrier_wait_ns;
  }
  return busy + wait > 0 ? static_cast<double>(wait) / static_cast<double>(busy + wait) : 0.0;
}

}  // namespace dfly::prof
