// Wall-clock performance attribution for one simulation run (DESIGN.md §11).
//
// The profiler answers "where did the wall-clock go" without perturbing the
// simulation: every hook reads the monotonic clock and writes into
// profiler-owned accumulators only — no simulation state, no RNG draw, no
// event is ever touched, so a run with profiling on is byte-identical (in all
// existing artifacts) to the same run with profiling off. A differential test
// enforces exactly that.
//
// Two layers:
//  * Subsystem attribution — ProfScope (RAII) charges wall time to a fixed
//    subsystem enum at the instrumentation points: event dispatch (engine),
//    routing decisions (network), checkpoint I/O and telemetry export
//    (experiment harness). Scopes nest; attribution is inclusive (a routing
//    decision's time is inside its dispatch's time).
//    Every dispatch also lands in an HDR-style latency histogram.
//  * Throughput — sim-vs-wall samples (events/s, chunks/s, sim-seconds per
//    wall-second) taken at run start/end and every checkpoint slice.
//
// Everything lands in prof.json next to metrics.json (src/prof/report.hpp).
#pragma once

#include <cassert>
#include <cstdint>

#include "prof/wall_histogram.hpp"
#include "util/units.hpp"

namespace dfly::prof {

/// [prof] section of config files.
struct ProfOptions {
  bool enabled = false;
  /// Histogram resolution: each power-of-two octave splits into
  /// 2^hist_bucket_bits sub-buckets (WallHistogram).
  int hist_bucket_bits = 3;

  void validate() const;  ///< throws std::invalid_argument on bad values
};

/// Fixed wall-clock attribution targets. Keep in sync with to_string().
enum class Subsystem : int {
  EventDispatch = 0,  ///< handler->handle_event
  Routing,            ///< RoutingAlgorithm::compute at injection
  CheckpointIo,       ///< ckpt::save_checkpoint in the slicing loop
  TelemetryExport,    ///< export_run_artifacts at end of run
  kCount
};

const char* to_string(Subsystem s);

/// Sim-vs-wall throughput: cumulative since start() and rolling over the last
/// window of samples. Samples are pushed at run start/end and at checkpoint
/// slice boundaries; wall timestamps can be injected for unit tests.
class ThroughputTracker {
 public:
  struct Rates {
    double events_per_sec = 0.0;
    double chunks_per_sec = 0.0;
    double sim_per_wall = 0.0;  ///< simulated seconds per wall second
  };

  void start(SimTime sim_ns, std::uint64_t events, std::uint64_t chunks);
  void sample(SimTime sim_ns, std::uint64_t events, std::uint64_t chunks);
  /// Test hook: like start()/sample() but with an explicit wall clock.
  void start_at(std::int64_t wall_ns, SimTime sim_ns, std::uint64_t events, std::uint64_t chunks);
  void sample_at(std::int64_t wall_ns, SimTime sim_ns, std::uint64_t events, std::uint64_t chunks);

  bool started() const { return started_; }
  std::uint64_t samples() const { return samples_; }
  std::int64_t wall_ns() const { return last_.wall_ns - first_.wall_ns; }
  Rates cumulative() const { return rates(first_, last_); }
  /// Rates over the trailing window (kWindow samples); equals cumulative()
  /// until enough samples accumulate.
  Rates rolling() const { return rates(window_origin_, last_); }

  static constexpr int kWindow = 8;

 private:
  struct Point {
    std::int64_t wall_ns = 0;
    SimTime sim_ns = 0;
    std::uint64_t events = 0;
    std::uint64_t chunks = 0;
  };

  static Rates rates(const Point& a, const Point& b);

  bool started_ = false;
  std::uint64_t samples_ = 0;
  Point first_, last_;
  Point ring_[kWindow] = {};     ///< previous samples, oldest overwritten
  Point window_origin_;          ///< oldest sample still inside the window
};

class Profiler {
 public:
  /// The engine is serial: `lanes` must be 1 and `threads` 0 (anything else
  /// throws std::invalid_argument). The two arguments remain so callers
  /// written against the per-lane profiler still build.
  explicit Profiler(const ProfOptions& options, int lanes = 1, int threads = 0);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Monotonic wall clock in ns (steady_clock).
  static std::int64_t now_ns();

  const ProfOptions& options() const { return options_; }

  /// Charges `ns` of wall time to `s`.
  void add(Subsystem s, std::int64_t ns);

  std::int64_t subsystem_ns(Subsystem s) const { return ns_[static_cast<int>(s)]; }
  std::uint64_t subsystem_calls(Subsystem s) const { return calls_[static_cast<int>(s)]; }

  /// One timed dispatch: EventDispatch attribution plus a histogram sample.
  void record_dispatch(std::int64_t ns);

  const WallHistogram& dispatch_histogram() const { return dispatch_hist_; }

  /// Whole-run wall span (begin_run/end_run bracket Engine::run).
  void begin_run();
  void end_run();
  std::int64_t run_wall_ns() const { return run_wall_ns_; }

  ThroughputTracker& throughput() { return throughput_; }
  const ThroughputTracker& throughput() const { return throughput_; }

 private:
  ProfOptions options_;
  std::int64_t ns_[static_cast<int>(Subsystem::kCount)] = {};
  std::uint64_t calls_[static_cast<int>(Subsystem::kCount)] = {};
  WallHistogram dispatch_hist_;
  std::int64_t run_begin_ns_ = 0;
  std::int64_t run_wall_ns_ = 0;
  ThroughputTracker throughput_;
};

/// RAII scope charging its lifetime to a subsystem. A null profiler makes
/// construction and destruction a branch each — the disabled path costs
/// nothing but the two branches. `lane` must be 0; it remains so callers
/// written against the per-lane profiler still build.
class ProfScope {
 public:
  ProfScope(Profiler* p, Subsystem s, [[maybe_unused]] int lane = 0) : p_(p), s_(s) {
    assert(lane == 0 && "the engine has a single lane");
    if (p_ != nullptr) t0_ = Profiler::now_ns();
  }
  ~ProfScope() {
    if (p_ != nullptr) p_->add(s_, Profiler::now_ns() - t0_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* p_;
  Subsystem s_;
  std::int64_t t0_ = 0;
};

}  // namespace dfly::prof
