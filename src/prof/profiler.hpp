// Wall-clock performance attribution for one simulation run (DESIGN.md §11).
//
// The profiler answers "where did the wall-clock go" without perturbing the
// simulation: every hook reads the monotonic clock and writes into
// profiler-owned accumulators only — no simulation state, no RNG draw, no
// event is ever touched, so a run with profiling on is byte-identical (in all
// existing artifacts) to the same run with profiling off. A differential test
// enforces exactly that.
//
// Three layers:
//  * Subsystem attribution — ProfScope (RAII) charges wall time to a fixed
//    subsystem enum at the instrumentation points: event dispatch (engine),
//    routing decisions and NIC retransmits (network), checkpoint I/O and
//    telemetry export (experiment harness). Scopes nest; attribution is
//    inclusive (a routing decision's time is inside its dispatch's time).
//  * Lane phases — in sharded runs every lane accumulates compute (event
//    dispatch on that lane), barrier-wait (batch span minus the lane's own
//    busy time) and cross-shard flush (outbox merge) separately, yielding the
//    lane-imbalance and lookahead-stall metrics the parallel engine needs.
//    Each LaneProf is written by exactly one thread per batch (the same
//    ownership discipline as Engine::Lane), so no locks are needed.
//  * Throughput — sim-vs-wall samples (events/s, chunks/s, sim-seconds per
//    wall-second) taken at run start/end and every checkpoint slice.
//
// Everything lands in prof.json next to metrics.json (src/prof/report.hpp).
#pragma once

#include <cstdint>
#include <vector>

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
  EventDispatch = 0,  ///< handler->handle_event, all lanes
  Routing,            ///< RoutingAlgorithm::compute at injection
  NicRetransmit,      ///< kRetransmit handling (NIC re-queue + inject)
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

/// Per-lane wall-clock accumulators. Written by the one thread that owns the
/// lane during a batch (or the single thread of a serial run); read by the
/// coordinator only between batches and at report time — the engine's barrier
/// provides the happens-before edge. alignas keeps lanes off shared lines.
struct alignas(64) LaneProf {
  std::int64_t busy_ns = 0;          ///< compute: dispatching this lane's events
  std::int64_t barrier_wait_ns = 0;  ///< batch span minus own busy time
  std::int64_t flush_ns = 0;         ///< merging this lane's outbox at barriers
  std::uint64_t events = 0;          ///< dispatches timed into busy_ns
  std::uint64_t batches = 0;         ///< batches this lane participated in
};

class Profiler {
 public:
  /// `lanes` must match Engine::lanes() of the run (1 for a serial engine);
  /// `threads` is the configured worker count (0 = serial engine).
  Profiler(const ProfOptions& options, int lanes, int threads);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Monotonic wall clock in ns (steady_clock).
  static std::int64_t now_ns();

  const ProfOptions& options() const { return options_; }
  int lanes() const { return static_cast<int>(lanes_.size()); }
  int threads() const { return threads_; }

  LaneProf& lane(int i) { return lanes_[static_cast<std::size_t>(i)]; }
  const LaneProf& lane(int i) const { return lanes_[static_cast<std::size_t>(i)]; }

  /// Charges `ns` of wall time to `s`. Only called from the coordinator
  /// thread (checkpoint I/O, telemetry export) or from inside a dispatch the
  /// engine already serializes per lane (routing, retransmit) — the per-lane
  /// shards below keep it race-free.
  void add(Subsystem s, int lane, std::int64_t ns);

  std::int64_t subsystem_ns(Subsystem s) const;
  std::uint64_t subsystem_calls(Subsystem s) const;

  /// One dispatch timed on `lane`: busy time plus a histogram sample.
  void record_dispatch(int lane, std::int64_t ns);
  /// One barrier: this lane waited `wait_ns` of the batch span.
  void record_barrier_wait(int lane, std::int64_t wait_ns);
  /// Cross-shard flush time (outbox merge / barrier quiesce) on `lane`.
  void add_flush(int lane, std::int64_t ns);

  /// Coordinator-side batch bracket: begin_batch snapshots each active lane's
  /// busy time, end_batch derives barrier-wait as batch span minus the lane's
  /// own busy delta (clamped at zero) and records it. Called by Engine around
  /// every parallel batch; never concurrent with worker dispatch.
  void begin_batch(const std::vector<int>& active_lanes);
  void end_batch(const std::vector<int>& active_lanes);

  /// Merged dispatch-latency histogram across lanes.
  WallHistogram dispatch_histogram() const;
  const WallHistogram& barrier_histogram() const { return barrier_hist_; }

  /// Whole-run wall span (begin_run/end_run bracket Engine::run).
  void begin_run();
  void end_run();
  std::int64_t run_wall_ns() const { return run_wall_ns_; }

  /// Busiest lane busy time over the mean lane busy time (1.0 = perfectly
  /// balanced); 0 when nothing ran.
  double lane_imbalance() const;
  /// Fraction of lane-seconds spent in barrier wait:
  /// sum(wait) / sum(busy + wait). The "lookahead stall" headline.
  double barrier_stall_fraction() const;

  ThroughputTracker& throughput() { return throughput_; }
  const ThroughputTracker& throughput() const { return throughput_; }

 private:
  struct alignas(64) SubsystemShard {
    std::int64_t ns[static_cast<int>(Subsystem::kCount)] = {};
    std::uint64_t calls[static_cast<int>(Subsystem::kCount)] = {};
  };

  ProfOptions options_;
  int threads_;
  std::vector<LaneProf> lanes_;
  std::vector<SubsystemShard> subsystems_;    ///< one shard per lane
  std::vector<WallHistogram> dispatch_hists_;  ///< one per lane, merged on read
  WallHistogram barrier_hist_;                ///< coordinator-only
  std::vector<std::int64_t> batch_busy_;      ///< begin_batch busy snapshots
  std::int64_t batch_t0_ = 0;
  std::int64_t run_begin_ns_ = 0;
  std::int64_t run_wall_ns_ = 0;
  ThroughputTracker throughput_;
};

/// RAII scope charging its lifetime to (subsystem, lane). A null profiler
/// makes construction and destruction a branch each — the disabled path costs
/// nothing but the two branches.
class ProfScope {
 public:
  ProfScope(Profiler* p, Subsystem s, int lane) : p_(p), s_(s), lane_(lane) {
    if (p_ != nullptr) t0_ = Profiler::now_ns();
  }
  ~ProfScope() {
    if (p_ != nullptr) p_->add(s_, lane_, Profiler::now_ns() - t0_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* p_;
  Subsystem s_;
  int lane_;
  std::int64_t t0_ = 0;
};

}  // namespace dfly::prof
