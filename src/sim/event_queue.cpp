#include "sim/event_queue.hpp"

#include <bit>
#include <cassert>

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

}  // namespace dfly
