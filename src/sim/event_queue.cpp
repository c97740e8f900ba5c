#include "sim/event_queue.hpp"

namespace dfly {

void CalendarEventQueue::push_overflow(const QueuedEvent& ev) { overflow_.push(ev); }

void CalendarEventQueue::promote() {
  while (overflow_due()) {
    append(overflow_.top());
    overflow_.pop();
    ++stats_.overflow_promotions;
  }
}

}  // namespace dfly
