#include "sim/engine.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "prof/profiler.hpp"

namespace dfly {

void Engine::throw_past(SimTime when) const {
  throw std::logic_error("Engine::schedule: time " + std::to_string(when) + " precedes now " +
                         std::to_string(now_));
}

bool Engine::step(SimTime deadline) {
  if (profiler_ != nullptr && profiler_->sample_next()) return timed_step(deadline);
  if (!ready(deadline)) return false;
  const QueuedEvent ev = pop_and_hint();
  now_ = ev.time;
  ++processed_;
  if (profiler_ != nullptr) profiler_->count_untimed();
  ev.handler->handle_event(now_, ev.payload);
  return true;
}

// The sampled step: three clock reads split it into the pop side and the
// dispatch. A step that finds nothing to dispatch leaves the countdown at 0,
// so the next dispatch is the timed one.
bool Engine::timed_step(SimTime deadline) {
  const std::int64_t t0 = prof::Profiler::now_ns();
  if (!ready(deadline)) return false;
  const QueuedEvent ev = pop_and_hint();
  now_ = ev.time;
  ++processed_;
  const std::int64_t t1 = prof::Profiler::now_ns();
  sampling_ = profiler_;
  ev.handler->handle_event(now_, ev.payload);
  sampling_ = nullptr;
  profiler_->record_sample(ev.handler->prof_layer(), t1 - t0, prof::Profiler::now_ns() - t1);
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
  const std::int64_t t0 = profiler_ != nullptr ? prof::Profiler::now_ns() : 0;
  while (step(deadline)) {
  }
  if (profiler_ != nullptr) profiler_->add_loop(prof::Profiler::now_ns() - t0);
  return now_;
}

}  // namespace dfly
