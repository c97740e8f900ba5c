// Discrete-event simulation engine.
//
// Design notes:
//  * Events carry a small POD payload and a handler pointer; dispatch is one
//    virtual call into the owning subsystem, which switches on `kind`. This
//    avoids a std::function allocation per event — the simulator schedules
//    tens of millions of events per experiment.
//  * Ties in time are broken by a monotonically increasing sequence number so
//    execution order (and therefore every simulation result) is fully
//    deterministic for a given seed.
//  * The pending-event set lives in a timing wheel (sim/event_queue.hpp):
//    O(1) scheduling for the near-monotonic event stream, with a
//    heap-backed overflow tier for far-future timers.
//  * The engine is serial. Sweep parallelism lives one level up, in
//    run_matrix (one configuration per worker, DESIGN.md §9).
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace dfly {

namespace prof {
class Profiler;
}  // namespace prof

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Always 0: the engine has a single lane. Kept so callers written against
  /// the per-lane profiler API (prof::ProfScope's lane argument) still build.
  int global_lane() const { return 0; }

  /// Attaches a wall-clock profiler (src/prof/, DESIGN.md §11) that times
  /// one dispatch in every prof::Profiler::kStride; nullptr detaches. Pure
  /// observability — the hooks read the monotonic clock and write
  /// profiler-owned accumulators only, so attaching one never changes
  /// simulation behaviour.
  void set_profiler(prof::Profiler* p) { profiler_ = p; }
  prof::Profiler* profiler() const { return profiler_; }
  /// The profiler while a sampled dispatch runs, null otherwise: handlers
  /// pass it to prof::LayerScope to time their nested layers.
  prof::Profiler* sampling() const { return sampling_; }

  /// Schedules `payload` for delivery to `handler` at absolute time `when`.
  /// Throws std::logic_error if `when` precedes the current time.
  void schedule(SimTime when, EventHandler* handler, EventPayload payload);

  /// Convenience: schedule relative to the current time.
  void schedule_after(SimTime delay, EventHandler* handler, EventPayload payload) {
    schedule(now_ + delay, handler, payload);
  }

  /// Runs until no events remain. Returns the final simulation time.
  SimTime run();

  /// Runs until the queue drains or time would exceed `deadline`; events at
  /// t > deadline stay queued. Returns current time.
  SimTime run_until(SimTime deadline);

  /// Like run_until(), but never advances now() past the last dispatched
  /// event, even when the queue drains. A run fully consumed through
  /// run_slice() calls therefore ends at exactly the same now() as one
  /// consumed by run(), so a caller may pause a run to sample it (perfbench's
  /// queue-depth sampling loop does) without changing any time-normalized
  /// output.
  SimTime run_slice(SimTime deadline);

  SimTime now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending() const { return queue_.size(); }

  /// Aborts run() after this many further events (0 = unlimited); used by
  /// tests as a deadlock/livelock watchdog.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  bool hit_event_limit() const { return hit_limit_; }

  /// Makes run()/run_until() return before dispatching any further event.
  /// Callable from inside an event handler (the HealthMonitor uses this to
  /// halt a stalled simulation while its state is still inspectable).
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Occupancy and promotion counters of the scheduler (reported by
  /// HealthMonitor and metrics/).
  const SchedulerStats& scheduler_stats() const { return queue_.stats(); }

 private:
  /// True when an event at or before `deadline` may be dispatched now.
  bool ready(SimTime deadline) {
    if (stop_requested_ || queue_.empty() || queue_.min().time > deadline) return false;
    if (event_limit_ != 0 && processed_ >= event_limit_) {
      hit_limit_ = true;
      return false;
    }
    return true;
  }
  /// Dispatches the next event if ready(deadline); false otherwise.
  bool step(SimTime deadline);
  bool timed_step(SimTime deadline);

  CalendarEventQueue queue_;
  std::uint64_t seq_ = 0;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t event_limit_ = 0;
  bool hit_limit_ = false;
  bool stop_requested_ = false;
  prof::Profiler* profiler_ = nullptr;
  prof::Profiler* sampling_ = nullptr;
};

}  // namespace dfly
