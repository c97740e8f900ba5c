#include "prof/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace dfly::prof {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::Scheduler: return "scheduler";
    case Layer::Network: return "network";
    case Layer::Routing: return "routing";
    case Layer::Replay: return "replay";
    case Layer::Telemetry: return "telemetry";
    case Layer::Other: return "other";
    case Layer::kCount: break;
  }
  return "?";
}

const char* to_string(Subsystem s) {
  switch (s) {
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
  first_ = last_ = Point{wall_ns, sim_ns, events, chunks};
}

void ThroughputTracker::sample_at(std::int64_t wall_ns, SimTime sim_ns, std::uint64_t events,
                                  std::uint64_t chunks) {
  if (!started_) {
    start_at(wall_ns, sim_ns, events, chunks);
    return;
  }
  ++samples_;
  last_ = Point{wall_ns, sim_ns, events, chunks};
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

namespace {

/// Median gap between back-to-back clock reads: what one read adds to an
/// interval it bounds. The median shrugs off a preemption mid-calibration.
std::int64_t calibrate_clock_read() {
  constexpr int kReads = 255;
  std::int64_t gaps[kReads];
  for (std::int64_t& gap : gaps) {
    const std::int64_t t0 = Profiler::now_ns();
    gap = Profiler::now_ns() - t0;
  }
  std::nth_element(gaps, gaps + kReads / 2, gaps + kReads);
  return gaps[kReads / 2];
}

}  // namespace

Profiler::Profiler(const ProfOptions& options, int lanes, int threads)
    : options_(options), clock_read_ns_(calibrate_clock_read()) {
  if (lanes != 1 || threads != 0)
    throw std::invalid_argument("prof: the engine is serial (lanes must be 1, threads 0)");
}

std::int64_t Profiler::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A timed interval spans one clock read beyond the code it brackets (the
// tail of the first read and the head of the second), so each interval is
// charged clock_read_ns_ less. A nested scope also puts both of its reads
// inside the enclosing dispatch: it takes its interval plus one read from
// the handler's self time.
void Profiler::record_sample(Layer handler, std::int64_t pop_ns, std::int64_t dispatch_ns) {
  const std::int64_t dispatch = std::max<std::int64_t>(dispatch_ns - clock_read_ns_, 0);
  layers_[static_cast<int>(Layer::Scheduler)].ns +=
      std::max<std::int64_t>(pop_ns - clock_read_ns_, 0);
  LayerTotals& self = layers_[static_cast<int>(handler)];
  self.ns += std::max<std::int64_t>(dispatch - nested_ns_, 0);
  ++self.sampled;
  dispatch_hist_.add(dispatch);
  nested_ns_ = 0;
  ++sampled_events_;
  countdown_ = kStride - 1;
}

void Profiler::record_nested(Layer layer, std::int64_t ns) {
  layers_[static_cast<int>(layer)].ns += std::max<std::int64_t>(ns - clock_read_ns_, 0);
  nested_ns_ += ns + clock_read_ns_;
}

std::int64_t Profiler::timed_ns() const {
  std::int64_t sum = 0;
  for (const LayerTotals& layer : layers_) sum += layer.ns;
  return sum;
}

std::int64_t Profiler::layer_est_ns(Layer layer) const {
  const std::int64_t timed = timed_ns();
  if (timed == 0) return 0;
  const double share = static_cast<double>(layer_timed_ns(layer)) / static_cast<double>(timed);
  return std::llround(share * static_cast<double>(loop_ns_));
}

void Profiler::add(Subsystem s, std::int64_t ns) {
  ns_[static_cast<int>(s)] += std::max<std::int64_t>(ns, 0);
  ++calls_[static_cast<int>(s)];
}

void Profiler::begin_run() { run_begin_ns_ = now_ns(); }

void Profiler::end_run() { run_wall_ns_ += now_ns() - run_begin_ns_; }

}  // namespace dfly::prof
