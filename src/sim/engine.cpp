#include "sim/engine.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "ckpt/snapshot_io.hpp"
#include "prof/profiler.hpp"

namespace dfly {

void Engine::schedule(SimTime when, EventHandler* handler, EventPayload payload) {
  assert(handler != nullptr);
  // A real check, not an assert: release builds must not run the clock
  // backwards, and `now + delay` overflowing goes negative and lands here.
  if (when < now_)
    throw std::logic_error("Engine::schedule: time " + std::to_string(when) +
                           " precedes now " + std::to_string(now_));
  queue_.push(QueuedEvent{when, seq_++, handler, payload});
}

bool Engine::step() {
  if (stop_requested_) return false;
  if (queue_.empty()) return false;
  if (event_limit_ != 0 && processed_ >= event_limit_) {
    hit_limit_ = true;
    return false;
  }
  const QueuedEvent ev = queue_.pop_min();
  now_ = ev.time;
  ++processed_;
  if (profiler_ == nullptr) {
    ev.handler->handle_event(now_, ev.payload);
  } else {
    const std::int64_t t0 = prof::Profiler::now_ns();
    ev.handler->handle_event(now_, ev.payload);
    profiler_->record_dispatch(prof::Profiler::now_ns() - t0);
  }
  return true;
}

SimTime Engine::run() { return run_slice(std::numeric_limits<SimTime>::max()); }

SimTime Engine::run_until(SimTime deadline) {
  run_slice(deadline);
  // Advance to the deadline only on a genuine drain: a run halted by
  // request_stop() or the event-limit watchdog must not teleport forward.
  if (pending() == 0 && !stop_requested_ && !hit_limit_ && now_ < deadline) now_ = deadline;
  return now_;
}

SimTime Engine::run_slice(SimTime deadline) {
  while (!queue_.empty() && queue_.min().time <= deadline) {
    if (!step()) break;
  }
  return now_;
}

void Engine::save_state(ckpt::Writer& w,
                        const std::function<std::uint32_t(EventHandler*)>& id_of) const {
  w.u8(0);  // mode byte: serial (format v2 layout)
  w.i64(now_);
  w.u64(seq_);
  w.u64(processed_);
  queue_.save_state(w, id_of);
}

void Engine::load_state(ckpt::Reader& r,
                        const std::function<EventHandler*(std::uint32_t)>& handler_of) {
  assert(pending() == 0 && processed_ == 0 && "load_state requires a fresh engine");
  const std::uint8_t mode = r.u8();
  if (mode != 0)
    throw std::runtime_error("snapshot: engine mode byte " + std::to_string(mode) +
                             " is not serial; sharded snapshots are no longer supported");
  now_ = r.i64();
  seq_ = r.u64();
  processed_ = r.u64();
  if (now_ < 0 || processed_ > seq_)
    throw std::runtime_error("snapshot: inconsistent engine clock state");
  queue_.load_state(r, handler_of);
}

}  // namespace dfly
