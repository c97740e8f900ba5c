// Event queues for the discrete-event engine. Both dispatch in strict
// (time, seq) order, so swapping one for the other cannot change any result:
//  * HeapEventQueue — a binary heap, O(log n): the reference for differential
//    tests and the baseline of the scheduler microbenchmark.
//  * CalendarEventQueue — a fixed exact-time timing wheel with a heap-backed
//    overflow tier, O(1) for the simulator's near-monotonic event stream: the
//    Engine's queue. DESIGN.md §6 has the measurements behind its size.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "prof/layer.hpp"
#include "util/units.hpp"

namespace dfly {

/// Small fixed-size event payload interpreted by the receiving handler. The
/// fields carry ids (channel, node, message, rank, chunk) and chunk byte
/// counts, all 32-bit (NetworkParams::validate() caps bytes at INT32_MAX).
struct EventPayload {
  std::int32_t kind = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};
static_assert(sizeof(EventPayload) == 16, "a payload is 16 bytes: half a wheel node");

/// Implemented by any subsystem that receives events (network, replay, ...).
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void handle_event(SimTime now, const EventPayload& payload) = 0;

  /// Hint that `payload` is the next event due for this handler: the engine
  /// passes it the earliest pending event right after popping the current
  /// one, so a handler may start loading the state that event will touch
  /// while the current one runs. It must not change any state a dispatch
  /// reads; the event may not be next after all, because the current one
  /// can schedule an earlier event. The default ignores the hint.
  virtual void prefetch(const EventPayload& /*payload*/) {}

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
/// A wheel node is 32 bytes: handler, payload and list link. It stores no
/// time and no seq: a slot holds one time, implied by the slot's offset from
/// cur, and a slot's FIFO order is seq order. The slot of the earliest
/// in-window event is kept up to date, so min() and pop_min() need no scan
/// until a pop empties that slot.
///
/// Preconditions: a pushed time is at least cur (Engine::schedule enforces
/// time >= now) and seq increases with push order. pop_min()/min() then
/// return events in strict (time, seq) order — identical to HeapEventQueue.
/// The wheel does not keep seq, so the seq of a returned event is not valid.
class CalendarEventQueue {
  struct Node {
    EventHandler* handler;
    EventPayload payload;
    std::uint32_t next;
  };

 public:
  /// Window length in ns; a power of two. Affects speed only, never order.
  static constexpr std::size_t kSlots = 4096;
  /// Bytes per wheel node: two nodes share a cache line.
  static constexpr std::size_t kNodeBytes = sizeof(Node);

  [[gnu::always_inline]] void push(const QueuedEvent& ev) {
    assert(ev.time >= cur_ && "push before the last dispatched time");
    if (static_cast<std::uint64_t>(ev.time - cur_) < kSlots)
      append(ev);
    else
      push_overflow(ev);
    ++size_;
    if (size_ > stats_.peak_pending) stats_.peak_pending = size_;
  }
  /// The earliest event. Never moves the window, so a push earlier than the
  /// result stays legal.
  QueuedEvent min() const {
    if (first_ == kNone) return overflow_.top();
    const Node& n = pool_[slots_[first_].head];
    return QueuedEvent{slot_time(first_), 0, n.handler, n.payload};
  }
  /// The time of min().
  SimTime min_time() const {
    return first_ == kNone ? overflow_.top().time : slot_time(first_);
  }
  [[gnu::always_inline]] QueuedEvent pop_min() {
    assert(size_ > 0);
    if (first_ == kNone) {
      // Only far-future events are pending: jump the window to the earliest.
      cur_ = overflow_.top().time;
      promote();
    }
    const std::size_t s = first_;
    const SimTime time = slot_time(s);
    Slot& slot = slots_[s];
    const std::uint32_t n = slot.head;
    Node& node = pool_[n];
    const QueuedEvent ev{time, 0, node.handler, node.payload};
    slot.head = node.next;
    node.next = free_;
    free_ = n;
    --size_;
    if (slot.head == kNil) {
      occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
      // Nothing pending is earlier than this slot, so the search starts here.
      first_ = size_ == overflow_.size() ? kNone : scan_from(s);
    }
    if (time != cur_) {
      cur_ = time;
      if (overflow_due()) promote();
    }
    return ev;
  }

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
  static constexpr std::size_t kNone = SIZE_MAX;
  static constexpr std::size_t kMask = kSlots - 1;
  static_assert((kSlots & kMask) == 0 && kSlots % 64 == 0);
  static_assert(kNodeBytes == 32);

  struct Slot { std::uint32_t head = kNil, tail = kNil; };

  /// Window position of slot `s`: 0 for cur's slot, kSlots - 1 for the last.
  std::size_t offset(std::size_t s) const { return (s - static_cast<std::size_t>(cur_)) & kMask; }
  /// The one time the events in slot `s` can have.
  SimTime slot_time(std::size_t s) const { return cur_ + static_cast<SimTime>(offset(s)); }
  /// First occupied slot at or after `start` in window order; the wheel must
  /// be non-empty.
  std::size_t scan_from(std::size_t start) const {
    // Slots rise from `start` upwards, then wrap round to the slots below it.
    std::size_t w = start / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
      w = (w + 1) % occupied_.size();
      bits = occupied_[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }
  [[gnu::always_inline]] void append(const QueuedEvent& ev) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = pool_[n].next;
      pool_[n] = Node{ev.handler, ev.payload, kNil};
    } else {
      n = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{ev.handler, ev.payload, kNil});
    }
    const std::size_t s = static_cast<std::size_t>(ev.time) & kMask;
    Slot& slot = slots_[s];
    if (slot.head == kNil) {
      slot.head = n;
      occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
    } else {
      pool_[slot.tail].next = n;
    }
    slot.tail = n;
    if (first_ == kNone || offset(s) < offset(first_)) first_ = s;
  }
  /// True when the earliest overflow event lies inside the window.
  bool overflow_due() const {
    return !overflow_.empty() &&
           static_cast<std::uint64_t>(overflow_.top().time - cur_) < kSlots;
  }
  // The overflow tier is cold (a few timers per run), so it stays out of line.
  void push_overflow(const QueuedEvent& ev);
  /// Moves every overflow event inside the window into its slot.
  void promote();

  std::vector<Slot> slots_ = std::vector<Slot>(kSlots);
  std::array<std::uint64_t, kSlots / 64> occupied_{};  ///< bit per non-empty slot
  std::vector<Node> pool_;
  std::uint32_t free_ = kNil;  ///< free-list head in pool_
  std::size_t first_ = kNone;  ///< slot of the earliest in-window event; kNone: none
  SimTime cur_ = 0;            ///< window start: time of the last pop_min()
  std::size_t size_ = 0;       ///< wheel + overflow
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> overflow_;
  mutable SchedulerStats stats_{kSlots, 1};
};

}  // namespace dfly
