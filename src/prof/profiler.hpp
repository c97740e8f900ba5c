// Wall-clock performance attribution for one simulation run (DESIGN.md §11).
//
// The profiler answers "where did the wall-clock go" without perturbing the
// simulation: every hook reads the monotonic clock and writes into
// profiler-owned accumulators only — no simulation state, no RNG draw, no
// event is ever touched, so a run with profiling on is byte-identical (in all
// existing artifacts) to the same run with profiling off. A differential test
// enforces exactly that.
//
// Three parts:
//  * Sampled layers — the engine times one dispatch in every kStride, picked
//    by a countdown. A sampled step reads the clock before the pop, before
//    the dispatch and after it; scopes nested in that dispatch (LayerScope:
//    routing, the replay callbacks) time themselves too. Each interval, less
//    the calibrated cost of the clock reads inside it, goes to exactly one
//    Layer, so the layers are exclusive. The engine also times its dispatch
//    loop in full (two reads per run_slice call); the layers split that
//    exact total in proportion to their sampled time. Unsampled dispatches
//    read no clock at all. The sampled dispatch times also feed an HDR-style
//    latency histogram.
//  * Whole-run scopes — ProfScope (RAII) times the telemetry export in full.
//  * Throughput — sim-vs-wall rates (events/s, chunks/s, sim-seconds per
//    wall-second) between the samples taken at run start and end.
//
// Everything lands in prof.json next to metrics.json (src/prof/report.hpp).
#pragma once

#include <cassert>
#include <cstdint>

#include "prof/layer.hpp"
#include "prof/wall_histogram.hpp"
#include "util/units.hpp"

namespace dfly::prof {

/// [prof] section of config files.
struct ProfOptions {
  bool enabled = false;
};

/// Scopes timed in full, once per call. Keep in sync with to_string().
enum class Subsystem : int {
  TelemetryExport = 0,  ///< export_run_artifacts at end of run
  kCount
};

const char* to_string(Subsystem s);

/// Sim-vs-wall throughput, cumulative from start() to the latest sample.
/// Callers sample at run start and end; wall timestamps can be injected for
/// unit tests.
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
};

class Profiler {
 public:
  /// One dispatch in every kStride is timed. Prime, so a periodic pattern in
  /// the event stream (power-of-two sizes, chunk/credit/port-free cycles) is
  /// unlikely to alias with the sample.
  static constexpr std::uint32_t kStride = 61;
  /// Dispatch histogram resolution: 2^3 sub-buckets per octave.
  static constexpr int kHistBucketBits = 3;

  /// The engine is serial: `lanes` must be 1 and `threads` 0 (anything else
  /// throws std::invalid_argument). The two arguments remain so callers
  /// written against the per-lane profiler still build. Construction
  /// calibrates the cost of one clock read (clock_read_ns()).
  explicit Profiler(const ProfOptions& options, int lanes = 1, int threads = 0);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Monotonic wall clock in ns (steady_clock).
  static std::int64_t now_ns();

  const ProfOptions& options() const { return options_; }

  // --- Sampled dispatches (Engine::step) ---------------------------------

  /// True when the next dispatch is the one to time.
  bool sample_next() const { return countdown_ == 0; }
  /// Counts one dispatch that was not timed.
  void count_untimed() { --countdown_; }
  /// Records the timed dispatch: `pop_ns` from before the pop to before the
  /// dispatch, `dispatch_ns` from there to its end, the handler charged with
  /// its self time, i.e. `dispatch_ns` less the nested scopes recorded since
  /// the previous sample. Restarts the countdown.
  void record_sample(Layer handler, std::int64_t pop_ns, std::int64_t dispatch_ns);
  /// Records a scope nested in the dispatch being timed (LayerScope).
  void record_nested(Layer layer, std::int64_t ns);
  /// Adds the wall time of one Engine::run_slice call.
  void add_loop(std::int64_t ns) { loop_ns_ += ns; }

  /// Dispatches seen, timed or not.
  std::uint64_t events() const {
    return sampled_events_ * kStride + (kStride - 1 - countdown_);
  }
  std::uint64_t sampled_events() const { return sampled_events_; }
  /// Wall time spent in the engine's dispatch loop, measured in full.
  std::int64_t loop_ns() const { return loop_ns_; }
  /// Sampled time of all layers, clock cost removed.
  std::int64_t timed_ns() const;
  /// Sampled time of `layer`, clock cost removed.
  std::int64_t layer_timed_ns(Layer layer) const { return layers_[static_cast<int>(layer)].ns; }
  /// Estimated wall time of `layer` over the whole run: loop_ns() times the
  /// layer's share of timed_ns(); 0 while nothing was timed. The estimates
  /// add up to loop_ns() (DESIGN.md §11 has why the share, not kStride
  /// times the sampled time, is the estimator).
  std::int64_t layer_est_ns(Layer layer) const;
  /// Sampled dispatches whose handler belongs to `layer`. Scheduler and
  /// Routing handle no events, so theirs is 0; across layers the counts sum
  /// to sampled_events().
  std::uint64_t layer_sampled(Layer layer) const {
    return layers_[static_cast<int>(layer)].sampled;
  }
  /// The cost of one steady_clock read, taken off every timed interval.
  std::int64_t clock_read_ns() const { return clock_read_ns_; }

  // --- Whole-run scopes (ProfScope) ---------------------------------------

  /// Charges `ns` of wall time to `s`.
  void add(Subsystem s, std::int64_t ns);

  std::int64_t subsystem_ns(Subsystem s) const { return ns_[static_cast<int>(s)]; }
  std::uint64_t subsystem_calls(Subsystem s) const { return calls_[static_cast<int>(s)]; }

  const WallHistogram& dispatch_histogram() const { return dispatch_hist_; }

  /// Whole-run wall span (begin_run/end_run bracket Engine::run).
  void begin_run();
  void end_run();
  std::int64_t run_wall_ns() const { return run_wall_ns_; }

  ThroughputTracker& throughput() { return throughput_; }
  const ThroughputTracker& throughput() const { return throughput_; }

 private:
  struct LayerTotals {
    std::int64_t ns = 0;        ///< sampled time, clock cost removed
    std::uint64_t sampled = 0;  ///< sampled dispatches handled by the layer
  };

  ProfOptions options_;
  std::uint32_t countdown_ = kStride - 1;  ///< untimed dispatches before the next timed one
  std::uint64_t sampled_events_ = 0;
  std::int64_t clock_read_ns_ = 0;
  /// Wall time the nested scopes of the current sample took from their
  /// dispatch, their own clock reads included.
  std::int64_t nested_ns_ = 0;
  std::int64_t loop_ns_ = 0;
  LayerTotals layers_[static_cast<int>(Layer::kCount)] = {};
  std::int64_t ns_[static_cast<int>(Subsystem::kCount)] = {};
  std::uint64_t calls_[static_cast<int>(Subsystem::kCount)] = {};
  WallHistogram dispatch_hist_{kHistBucketBits};
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

/// RAII scope charging its lifetime to `layer` instead of to the handler of
/// the dispatch it runs in. Pass Engine::sampling(): it is null outside a
/// sampled dispatch, and a null profiler makes the scope two branches.
class LayerScope {
 public:
  LayerScope(Profiler* p, Layer layer) : p_(p), layer_(layer) {
    if (p_ != nullptr) t0_ = Profiler::now_ns();
  }
  ~LayerScope() {
    if (p_ != nullptr) p_->record_nested(layer_, Profiler::now_ns() - t0_);
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  Profiler* p_;
  Layer layer_;
  std::int64_t t0_ = 0;
};

}  // namespace dfly::prof
