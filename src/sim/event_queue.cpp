#include "sim/event_queue.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "ckpt/snapshot_io.hpp"

namespace dfly {

void CalendarEventQueue::push(const QueuedEvent& ev) {
  assert(ev.time >= cur_ && "push before the last dispatched time");
  if (static_cast<std::uint64_t>(ev.time - cur_) < kSlots)
    append(ev);
  else
    overflow_.push(ev);
  ++size_;
  if (size_ > stats_.peak_pending) stats_.peak_pending = size_;
}

QueuedEvent CalendarEventQueue::pop_min() {
  assert(size_ > 0);
  if (size_ == overflow_.size()) {
    // Only far-future events are pending: jump the window to the earliest.
    cur_ = overflow_.top().time;
    promote();
  }
  const std::size_t s = first_slot();
  Slot& slot = slots_[s];
  const std::uint32_t n = slot.head;
  const QueuedEvent ev = pool_[n].ev;
  slot.head = pool_[n].next;
  if (slot.head == kNil) occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
  pool_[n].next = free_;
  free_ = n;
  --size_;
  if (ev.time != cur_) {
    cur_ = ev.time;
    promote();
  }
  return ev;
}

std::size_t CalendarEventQueue::first_slot() const {
  // Times rise from cur's slot upwards, then wrap round to the slots below it.
  const std::size_t start = static_cast<std::size_t>(cur_) & kMask;
  std::size_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  while (bits == 0) {
    w = (w + 1) % occupied_.size();
    bits = occupied_[w];
  }
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void CalendarEventQueue::append(const QueuedEvent& ev) {
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = pool_[n].next;
    pool_[n] = Node{ev, kNil};
  } else {
    n = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Node{ev, kNil});
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
}

void CalendarEventQueue::promote() {
  while (!overflow_.empty() && static_cast<std::uint64_t>(overflow_.top().time - cur_) < kSlots) {
    append(overflow_.top());
    overflow_.pop();
    ++stats_.overflow_promotions;
  }
}

namespace {

void save_event(ckpt::Writer& w, const QueuedEvent& ev,
                const std::function<std::uint32_t(EventHandler*)>& id_of) {
  w.i64(ev.time);
  w.u64(ev.seq);
  w.u32(id_of(ev.handler));
  w.i32(ev.payload.kind);
  w.u32(ev.payload.a);
  w.u64(ev.payload.b);
  w.u64(ev.payload.c);
}

QueuedEvent load_event(ckpt::Reader& r,
                       const std::function<EventHandler*(std::uint32_t)>& handler_of) {
  // Braced initializers are evaluated left to right, in field order.
  return QueuedEvent{r.i64(), r.u64(), handler_of(r.u32()),
                     EventPayload{r.i32(), r.u32(), r.u64(), r.u64()}};
}

// Serialized event size: bounds the Reader's count() by the bytes present.
constexpr std::size_t kEventBytes = 8 + 8 + 4 + 4 + 4 + 8 + 8;

}  // namespace

void CalendarEventQueue::save_state(
    ckpt::Writer& w, const std::function<std::uint32_t(EventHandler*)>& id_of) const {
  w.i64(cur_);
  w.size(size_);
  // Wheel slots from cur's round, then the overflow tier: (time, seq) order.
  for (std::size_t i = 0; i < kSlots; ++i) {
    const Slot& slot = slots_[(static_cast<std::size_t>(cur_) + i) & kMask];
    for (std::uint32_t n = slot.head; n != kNil; n = pool_[n].next)
      save_event(w, pool_[n].ev, id_of);
  }
  auto overflow = overflow_;
  while (!overflow.empty()) {
    save_event(w, overflow.top(), id_of);
    overflow.pop();
  }
  w.size(stats_.peak_pending);
  w.u64(stats_.resizes);
  w.u64(stats_.overflow_promotions);
}

void CalendarEventQueue::load_state(
    ckpt::Reader& r, const std::function<EventHandler*(std::uint32_t)>& handler_of) {
  assert(size_ == 0 && "load_state requires a fresh queue");
  cur_ = r.i64();
  if (cur_ < 0) throw std::runtime_error("snapshot: negative scheduler clock");
  const std::size_t n = r.count(kEventBytes);
  // Re-pushing rebuilds the same wheel/overflow split: it depends on cur only.
  QueuedEvent prev{cur_, 0, nullptr, EventPayload{}};
  for (std::size_t i = 0; i < n; ++i) {
    const QueuedEvent ev = load_event(r, handler_of);
    if (ev.time < cur_ || (i > 0 && !(ev > prev)))
      throw std::runtime_error("snapshot: pending events out of (time, seq) order");
    push(ev);
    prev = ev;
  }
  stats_.peak_pending = static_cast<std::size_t>(r.u64());
  stats_.resizes = r.u64();
  stats_.overflow_promotions = r.u64();
  if (stats_.peak_pending < size_) throw std::runtime_error("snapshot: peak pending below size");
}

}  // namespace dfly
