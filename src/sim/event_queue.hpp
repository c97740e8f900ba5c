// Event queues for the discrete-event engine. Both dispatch in strict
// (time, seq) order, so swapping one for the other cannot change any result:
//  * HeapEventQueue — a binary heap, O(log n): the reference for differential
//    tests and the baseline of the scheduler microbenchmark.
//  * CalendarEventQueue — a fixed exact-time timing wheel with a heap-backed
//    overflow tier, O(1) for the simulator's near-monotonic event stream: the
//    Engine's queue. DESIGN.md §6 has the measurements behind its size.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "prof/layer.hpp"
#include "util/units.hpp"

namespace dfly {

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

  /// The profiler layer charged with this handler's dispatch time, less its
  /// nested scopes (DESIGN.md §11).
  virtual prof::Layer prof_layer() const { return prof::Layer::Other; }
};

struct QueuedEvent {
  SimTime time;
  std::uint64_t seq;
  EventHandler* handler;
  EventPayload payload;
  bool operator>(const QueuedEvent& other) const {
    return time != other.time ? time > other.time : seq > other.seq;
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
  std::size_t buckets = 0;           ///< calendar array size (fixed)
  SimTime bucket_width = 0;          ///< ns covered by one bucket (fixed)
  std::size_t calendar_events = 0;   ///< events currently in the bucket array
  std::size_t overflow_events = 0;   ///< events parked in the overflow tier
  std::size_t peak_pending = 0;      ///< high-water mark of total pending events
  std::uint64_t resizes = 0;         ///< bucket-array rehashes; the fixed wheel never does one
  std::uint64_t overflow_promotions = 0;  ///< events promoted overflow -> calendar
};

/// Exact-time timing wheel: a calendar queue of kSlots buckets, 1 ns wide.
///
/// The window is [cur, cur + kSlots), cur being the time of the last
/// pop_min() (0 initially). An in-window event is appended to the FIFO of
/// slot `time % kSlots`, which holds that one time only, so ties pop in push
/// order; an occupancy bitmap finds the first non-empty slot. Later events
/// wait in a heap-backed overflow tier, and right after pop_min() moves cur
/// every one the window now covers is promoted, before any push can reach
/// its slot. Slots are intrusive lists over a node pool with a free list.
///
/// Preconditions: a pushed time is at least cur (Engine::schedule enforces
/// time >= now) and seq increases with push order. pop_min()/min() then
/// return events in strict (time, seq) order — identical to HeapEventQueue.
class CalendarEventQueue {
 public:
  /// Window length in ns; a power of two. Affects speed only, never order.
  static constexpr std::size_t kSlots = 4096;

  void push(const QueuedEvent& ev);
  /// Never moves the window, so a push earlier than the result stays legal.
  const QueuedEvent& min() const {
    return size_ == overflow_.size() ? overflow_.top() : pool_[slots_[first_slot()].head].ev;
  }
  QueuedEvent pop_min();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Event nodes allocated: the peak number of in-window events, never more.
  /// Kept out of SchedulerStats so the metrics artifacts do not depend on it.
  std::size_t reserved_events() const { return pool_.size(); }

  const SchedulerStats& stats() const {
    stats_.calendar_events = size_ - overflow_.size();
    stats_.overflow_events = overflow_.size();
    return stats_;
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::size_t kMask = kSlots - 1;
  static_assert((kSlots & kMask) == 0 && kSlots % 64 == 0);

  struct Node { QueuedEvent ev; std::uint32_t next; };
  struct Slot { std::uint32_t head = kNil, tail = kNil; };

  /// Slot of the earliest in-window event; the wheel must be non-empty.
  std::size_t first_slot() const;
  void append(const QueuedEvent& ev);
  /// Moves every overflow event inside the window into its slot.
  void promote();

  std::vector<Slot> slots_ = std::vector<Slot>(kSlots);
  std::array<std::uint64_t, kSlots / 64> occupied_{};  ///< bit per non-empty slot
  std::vector<Node> pool_;
  std::uint32_t free_ = kNil;  ///< free-list head in pool_
  SimTime cur_ = 0;            ///< window start: time of the last pop_min()
  std::size_t size_ = 0;       ///< wheel + overflow
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> overflow_;
  mutable SchedulerStats stats_{kSlots, 1};
};

}  // namespace dfly
