// Event queues for the discrete-event engine.
//
// Two priority-queue implementations with identical ordering semantics:
//
//  * HeapEventQueue — the classic binary heap (std::priority_queue). O(log n)
//    push/pop. Kept as the reference implementation for differential tests
//    and as the baseline side of the scheduler microbenchmarks.
//  * CalendarEventQueue — a calendar queue (Brown 1988) with lazy per-bucket
//    sorting and a heap-backed overflow tier for far-future events. O(1)
//    amortised push/pop for the simulator's near-monotonic event stream;
//    the Engine uses this one.
//
// Both dispatch in strict (time, seq) order, so swapping one for the other
// cannot change any simulation result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/units.hpp"

namespace dfly {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// Small fixed-size event payload interpreted by the receiving handler.
struct EventPayload {
  std::int32_t kind = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Implemented by any subsystem that receives events (network, replay, ...).
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void handle_event(SimTime now, const EventPayload& payload) = 0;
};

struct QueuedEvent {
  SimTime time;
  std::uint64_t seq;
  EventHandler* handler;
  EventPayload payload;
  bool operator>(const QueuedEvent& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

/// Binary-heap event queue; reference semantics for the calendar queue.
class HeapEventQueue {
 public:
  void push(const QueuedEvent& ev) { queue_.push(ev); }
  const QueuedEvent& min() const { return queue_.top(); }
  QueuedEvent pop_min() {
    QueuedEvent ev = queue_.top();
    queue_.pop();
    return ev;
  }
  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> queue_;
};

/// Occupancy / behaviour counters of the calendar queue, exposed through
/// Engine::scheduler_stats() so HealthMonitor and metrics can report them.
struct SchedulerStats {
  std::size_t buckets = 0;           ///< current calendar array size
  SimTime bucket_width = 0;          ///< ns covered by one bucket
  std::size_t calendar_events = 0;   ///< events currently in the bucket array
  std::size_t overflow_events = 0;   ///< events parked in the overflow tier
  std::size_t peak_pending = 0;      ///< high-water mark of total pending events
  std::uint64_t resizes = 0;         ///< bucket-array rehashes since construction
  std::uint64_t overflow_promotions = 0;  ///< events promoted overflow -> calendar
};

/// Calendar queue tuned for a near-monotonic, short-horizon event stream.
///
/// Events within the current window of `buckets() * bucket_width()` ns are
/// hashed by time into an array of buckets; each bucket stays unsorted until
/// it becomes the serving bucket (lazy sort, min kept at the back). Events
/// beyond the window (health-monitor and telemetry-probe ticks, sparse
/// background-traffic timers) go to a heap-backed overflow tier and are
/// promoted in (time, seq) order as the window slides over them. The array
/// doubles/halves and the bucket width is retuned from the live event spacing
/// whenever occupancy skews.
///
/// A bucket owns storage only while it holds events: draining one frees its
/// vector, and a resize builds a fresh array. Without that rule every bucket
/// keeps its largest-ever capacity, and a long run hoards slots for millions
/// of events while a few thousand are pending.
///
/// All event times must be non-negative. pop_min()/min() return events in
/// strict (time, seq) order — identical to HeapEventQueue.
class CalendarEventQueue {
 public:
  CalendarEventQueue();

  void push(const QueuedEvent& ev);
  /// Smallest pending event; lazily positions and sorts the serving bucket.
  const QueuedEvent& min();
  QueuedEvent pop_min();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Serializes the complete queue — events plus the calendar's tuning state
  /// (bucket layout, width, dispatch-gap ring, retune cooldown, stats
  /// counters) — so a restored queue reproduces not just the dispatch order
  /// but every future resize/promotion decision bit-for-bit. Handlers are
  /// written as small ids via `id_of` (they are raw pointers otherwise).
  void save_state(ckpt::Writer& w,
                  const std::function<std::uint32_t(EventHandler*)>& id_of) const;
  /// Restores into a freshly constructed queue; `handler_of` maps saved ids
  /// back to live handlers. Throws std::runtime_error on malformed input.
  void load_state(ckpt::Reader& r,
                  const std::function<EventHandler*(std::uint32_t)>& handler_of);

  /// Event slots the bucket array holds allocated (sum of bucket
  /// capacities). A bucket owns storage only while it holds events, so this
  /// tracks the pending calendar events, not their high-water mark. Kept out
  /// of SchedulerStats so the metrics artifacts stay unchanged.
  std::size_t reserved_events() const;

  const SchedulerStats& stats() const {
    stats_.buckets = buckets_.size();
    stats_.bucket_width = SimTime{1} << width_shift_;
    stats_.calendar_events = cal_size_;
    stats_.overflow_events = size_ - cal_size_;
    return stats_;
  }

 private:
  struct Bucket {
    std::vector<QueuedEvent> events;
    bool sorted = false;  // descending by (time, seq): min at the back
  };

  static constexpr std::uint64_t kNoBucket = UINT64_MAX;

  // Bucket width and array size are powers of two so the hot path shifts and
  // masks instead of dividing.
  std::uint64_t bucket_of(SimTime t) const { return static_cast<std::uint64_t>(t) >> width_shift_; }
  Bucket& slot(std::uint64_t b) { return buckets_[b & bucket_mask_]; }

  /// Advances cur_b_ to the bucket holding the global minimum and sorts it.
  void locate_min();
  /// Moves every overflow event whose bucket is inside the current window
  /// into the calendar array.
  void promote_overflow();
  /// Frees a drained bucket's storage.
  static void release(Bucket& bk);
  /// Inserts into the calendar tier (ordered insert if the slot is sorted).
  void insert_calendar(const QueuedEvent& ev);
  /// Moves the serving position back to `new_cur` (a push landed before the
  /// current window); events that fall out of the shrunk window spill to the
  /// overflow tier.
  void rewind(std::uint64_t new_cur);
  /// Rebuilds the calendar with `nbuckets` buckets and a width retuned from
  /// the observed event spacing.
  void resize(std::size_t nbuckets);
  /// Preferred bucket-width shift: from the spacing of recently *dispatched*
  /// events once enough have been seen (that is the density the serving
  /// bucket experiences), else from a sample of the pending set.
  int tuned_width_shift(const std::vector<QueuedEvent>& all) const;

  std::vector<Bucket> buckets_;
  std::uint64_t bucket_mask_;  ///< buckets_.size() - 1 (size is a power of two)
  int width_shift_;            ///< log2 of the bucket width in ns
  std::uint64_t cur_b_ = 0;    ///< absolute index of the serving bucket
  std::size_t size_ = 0;       ///< calendar + overflow
  std::size_t cal_size_ = 0;   ///< events in the bucket array
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> overflow_;
  std::uint64_t overflow_min_b_ = kNoBucket;  ///< bucket of overflow_.top()
  /// Ring of recent dispatch times, the width tuner's input.
  std::vector<SimTime> pop_times_;
  std::size_t pop_times_next_ = 0;
  bool pop_times_full_ = false;
  std::uint64_t pops_since_resize_ = 0;  ///< retune cooldown
  mutable SchedulerStats stats_;
};

}  // namespace dfly
