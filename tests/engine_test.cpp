// Unit tests for the discrete-event engine.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prof/profiler.hpp"

namespace dfly {
namespace {

class Recorder : public EventHandler {
 public:
  void handle_event(SimTime now, const EventPayload& payload) override {
    times.push_back(now);
    kinds.push_back(payload.kind);
  }
  std::vector<SimTime> times;
  std::vector<std::int32_t> kinds;
};

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, DeliversEventsInTimeOrder) {
  Engine engine;
  Recorder rec;
  engine.schedule(30, &rec, EventPayload{3, 0, 0, 0});
  engine.schedule(10, &rec, EventPayload{1, 0, 0, 0});
  engine.schedule(20, &rec, EventPayload{2, 0, 0, 0});
  engine.run();
  EXPECT_EQ(rec.kinds, (std::vector<std::int32_t>{1, 2, 3}));
  EXPECT_EQ(rec.times, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine engine;
  Recorder rec;
  for (std::int32_t k = 0; k < 50; ++k) engine.schedule(5, &rec, EventPayload{k, 0, 0, 0});
  engine.run();
  for (std::int32_t k = 0; k < 50; ++k) EXPECT_EQ(rec.kinds[k], k);
}

TEST(Engine, ScheduleAfterIsRelativeToNow) {
  Engine engine;
  struct Chainer : EventHandler {
    Engine* eng;
    std::vector<SimTime> seen;
    void handle_event(SimTime now, const EventPayload& payload) override {
      seen.push_back(now);
      if (payload.kind < 3) eng->schedule_after(7, this, EventPayload{payload.kind + 1, 0, 0, 0});
    }
  } chain;
  chain.eng = &engine;
  engine.schedule(100, &chain, EventPayload{1, 0, 0, 0});
  engine.run();
  EXPECT_EQ(chain.seen, (std::vector<SimTime>{100, 107, 114}));
}

TEST(Engine, RunUntilStopsAtDeadlineAndKeepsLaterEvents) {
  Engine engine;
  Recorder rec;
  engine.schedule(10, &rec, EventPayload{1, 0, 0, 0});
  engine.schedule(50, &rec, EventPayload{2, 0, 0, 0});
  engine.run_until(20);
  EXPECT_EQ(rec.kinds.size(), 1u);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(rec.kinds.size(), 2u);
  EXPECT_EQ(engine.now(), 50);
}

TEST(Engine, RunUntilAdvancesTimeWhenQueueEmpty) {
  Engine engine;
  engine.run_until(42);
  EXPECT_EQ(engine.now(), 42);
}

TEST(Engine, RunSliceHoldsClockAtLastEventOnDrain) {
  // Unlike run_until, run_slice never teleports to the deadline: a run fully
  // consumed in slices ends at the same now() as run(), so pausing a run to
  // sample it cannot change its time-normalized results.
  Engine engine;
  Recorder rec;
  engine.schedule(10, &rec, EventPayload{1, 0, 0, 0});
  engine.schedule(30, &rec, EventPayload{2, 0, 0, 0});
  engine.run_slice(20);
  EXPECT_EQ(engine.now(), 10);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run_slice(100);
  EXPECT_EQ(engine.now(), 30);  // queue drained; clock stays at the last event
  engine.run_slice(200);
  EXPECT_EQ(engine.now(), 30);  // empty-queue slices do not move time at all
}

TEST(Engine, EventLimitActsAsWatchdog) {
  Engine engine;
  struct Loop : EventHandler {
    Engine* eng;
    void handle_event(SimTime, const EventPayload&) override {
      eng->schedule_after(1, this, EventPayload{});
    }
  } loop;
  loop.eng = &engine;
  engine.set_event_limit(1000);
  engine.schedule(0, &loop, EventPayload{});
  engine.run();
  EXPECT_TRUE(engine.hit_event_limit());
  EXPECT_EQ(engine.events_processed(), 1000u);
}

TEST(Engine, RequestStopHaltsRunAndKeepsPendingEvents) {
  Engine engine;
  struct Stopper : EventHandler {
    Engine* eng;
    int seen = 0;
    void handle_event(SimTime, const EventPayload&) override {
      if (++seen == 3) eng->request_stop();
      eng->schedule_after(1, this, EventPayload{});
    }
  } stopper;
  stopper.eng = &engine;
  engine.schedule(0, &stopper, EventPayload{});
  engine.run();
  EXPECT_TRUE(engine.stop_requested());
  EXPECT_EQ(stopper.seen, 3);     // no event is processed after the stop request
  EXPECT_EQ(engine.pending(), 1u);  // the queue is left intact for inspection
  EXPECT_FALSE(engine.hit_event_limit());
}

TEST(Engine, RunUntilDoesNotTeleportToDeadlineAfterStop) {
  // Regression: a run halted by request_stop() used to advance now() to the
  // deadline whenever the queue happened to be empty.
  Engine engine;
  struct Stopper : EventHandler {
    Engine* eng;
    void handle_event(SimTime, const EventPayload&) override { eng->request_stop(); }
  } stopper;
  stopper.eng = &engine;
  engine.schedule(10, &stopper, EventPayload{});
  engine.run_until(100);
  EXPECT_TRUE(engine.stop_requested());
  EXPECT_EQ(engine.now(), 10);  // stopped simulations stay where they stopped
}

TEST(Engine, RunUntilDoesNotTeleportToDeadlineAfterEventLimit) {
  Engine engine;
  Recorder rec;
  engine.set_event_limit(1);
  engine.schedule(10, &rec, EventPayload{1, 0, 0, 0});
  engine.schedule(20, &rec, EventPayload{2, 0, 0, 0});
  engine.run_until(100);
  EXPECT_TRUE(engine.hit_event_limit());
  EXPECT_EQ(engine.now(), 10);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, RunUntilOnStoppedEngineWithEmptyQueueHoldsTime) {
  Engine engine;
  engine.request_stop();
  engine.run_until(42);
  EXPECT_EQ(engine.now(), 0);
}

TEST(Engine, ZeroDelaySelfScheduleRunsAtSameTime) {
  Engine engine;
  Recorder rec;
  engine.schedule(5, &rec, EventPayload{1, 0, 0, 0});
  engine.run();
  engine.schedule_after(0, &rec, EventPayload{2, 0, 0, 0});
  engine.run();
  EXPECT_EQ(rec.times, (std::vector<SimTime>{5, 5}));
}

// Writes "h<kind>" per dispatch into a log shared by every handler, so the
// test sees how dispatches and hints interleave. Keeps the default prefetch.
class DispatchLog : public EventHandler {
 public:
  explicit DispatchLog(std::vector<std::string>& log) : log_(log) {}
  void handle_event(SimTime /*now*/, const EventPayload& payload) override {
    log_.push_back("h" + std::to_string(payload.kind));
  }

 protected:
  std::vector<std::string>& log_;
};

// Also writes "p<kind>" per prefetch hint.
class HintLog : public DispatchLog {
 public:
  using DispatchLog::DispatchLog;
  void prefetch(const EventPayload& payload) override {
    log_.push_back("p" + std::to_string(payload.kind));
  }
};

// Runs 200 events split over a handler that takes hints (even kinds) and one
// that keeps the default no-op prefetch (odd kinds), with a profiler attached
// when `profiled`, so several dispatches go through the timed step.
std::vector<std::string> hint_log(bool profiled) {
  std::vector<std::string> log;
  HintLog hinted(log);
  DispatchLog plain(log);
  prof::Profiler profiler(prof::ProfOptions{});
  Engine engine;
  if (profiled) engine.set_profiler(&profiler);
  for (int k = 0; k < 200; ++k) {
    // Times repeat and go backwards in schedule order, so the dispatch order
    // (time, then schedule order) differs from the kind order.
    const SimTime t = (k * 37) % 50;
    engine.schedule(t, k % 2 == 0 ? &hinted : &plain, EventPayload{k, 0, 0, 0});
  }
  engine.run();
  return log;
}

TEST(Engine, HintsTheEarliestPendingEventBeforeEachDispatch) {
  const std::vector<std::string> log = hint_log(false);
  // Dispatch order: by time, then by schedule order.
  std::vector<int> order;
  for (int t = 0; t < 50; ++t)
    for (int k = 0; k < 200; ++k)
      if ((k * 37) % 50 == t) order.push_back(k);
  // Popping event i hints event i + 1 (the earliest still pending) before
  // event i runs, and only to a handler that overrides prefetch(); popping
  // the last event leaves the queue empty and hints nothing.
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i + 1 < order.size() && order[i + 1] % 2 == 0)
      expected.push_back("p" + std::to_string(order[i + 1]));
    expected.push_back("h" + std::to_string(order[i]));
  }
  EXPECT_EQ(log, expected);
}

TEST(Engine, TimedStepsIssueTheSameHints) {
  static_assert(prof::Profiler::kStride < 200, "the run must include timed steps");
  EXPECT_EQ(hint_log(true), hint_log(false));
}

TEST(Engine, NoHintWhenThePopEmptiesTheQueue) {
  std::vector<std::string> log;
  HintLog hinted(log);
  Engine engine;
  engine.schedule(3, &hinted, EventPayload{1, 0, 0, 0});
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"h1"}));
}

}  // namespace
}  // namespace dfly
