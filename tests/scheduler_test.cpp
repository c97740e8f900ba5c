// Differential and behavioural tests for the calendar-queue event scheduler.
//
// The calendar queue replaced the binary heap on the engine's hottest path;
// these tests pin the contract that made the swap safe: both queues dispatch
// in bit-identical (time, seq) order on any event stream, including same-time
// ties, in-handler scheduling, and far-future backoff times.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dfly {
namespace {

class NullHandler : public EventHandler {
 public:
  void handle_event(SimTime, const EventPayload&) override {}
};

// Feeds the same randomized push/pop stream to both queues and asserts every
// popped event matches exactly.
void differential_stream(std::uint64_t seed, int ops, SimTime horizon, double far_fraction) {
  Rng rng(seed);
  NullHandler handler;
  HeapEventQueue heap;
  CalendarEventQueue calendar;
  std::uint64_t seq = 0;
  SimTime now = 0;
  for (int i = 0; i < ops; ++i) {
    const bool do_push = heap.empty() || rng.bernoulli(0.55);
    if (do_push) {
      SimTime when;
      const double roll = rng.uniform_double();
      if (roll < far_fraction) {
        // Far-future: an exponential-backoff timer.
        when = now + (SimTime{20} * units::kMicrosecond
                      << static_cast<int>(rng.uniform(16)));
      } else if (roll < far_fraction + 0.2) {
        when = now;  // same-time tie
      } else {
        when = now + static_cast<SimTime>(rng.uniform(static_cast<std::uint64_t>(horizon)));
      }
      const QueuedEvent ev{when, seq++, &handler,
                           EventPayload{static_cast<std::int32_t>(i), 0, 0, 0}};
      heap.push(ev);
      calendar.push(ev);
    } else {
      ASSERT_FALSE(calendar.empty());
      const QueuedEvent a = heap.pop_min();
      const QueuedEvent b = calendar.pop_min();
      ASSERT_EQ(a.time, b.time) << "op " << i << " seed " << seed;
      ASSERT_EQ(a.seq, b.seq) << "op " << i << " seed " << seed;
      ASSERT_GE(a.time, now);
      now = a.time;
    }
  }
  // Drain both; order must stay identical to the end.
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    const QueuedEvent a = heap.pop_min();
    const QueuedEvent b = calendar.pop_min();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueue, DifferentialShortHorizon) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    differential_stream(seed, 4000, 2000, 0.0);
}

TEST(CalendarQueue, DifferentialBackoffHeavy) {
  for (std::uint64_t seed = 11; seed <= 18; ++seed)
    differential_stream(seed, 4000, 2000, 0.3);
}

TEST(CalendarQueue, DifferentialWideHorizon) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed)
    differential_stream(seed, 3000, 50 * units::kMillisecond, 0.1);
}

TEST(CalendarQueue, AllSameTimePopsInSeqOrder) {
  NullHandler handler;
  CalendarEventQueue q;
  for (std::uint64_t s = 0; s < 500; ++s)
    q.push(QueuedEvent{1234, s, &handler, EventPayload{}});
  for (std::uint64_t s = 0; s < 500; ++s) {
    const QueuedEvent ev = q.pop_min();
    EXPECT_EQ(ev.time, 1234);
    EXPECT_EQ(ev.seq, s);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ResizesWhenOccupancySkews) {
  NullHandler handler;
  CalendarEventQueue q;
  const std::size_t initial_buckets = q.stats().buckets;
  Rng rng(5);
  for (std::uint64_t s = 0; s < 10'000; ++s)
    q.push(QueuedEvent{static_cast<SimTime>(rng.uniform(1'000'000)), s, &handler, EventPayload{}});
  EXPECT_GT(q.stats().resizes, 0u);
  EXPECT_GT(q.stats().buckets, initial_buckets);
  EXPECT_EQ(q.stats().peak_pending, 10'000u);
  const std::uint64_t grown_resizes = q.stats().resizes;
  SimTime last = -1;
  while (!q.empty()) {
    const SimTime t = q.pop_min().time;
    EXPECT_GE(t, last);
    last = t;
  }
  // Draining shrinks the array back down.
  EXPECT_GT(q.stats().resizes, grown_resizes);
  EXPECT_EQ(q.stats().buckets, initial_buckets);
}

TEST(CalendarQueue, FarFutureEventsParkInOverflowAndPromote) {
  NullHandler handler;
  CalendarEventQueue q;
  std::uint64_t seq = 0;
  // A cluster now plus stragglers seconds away: the stragglers must sit in
  // the overflow tier, then promote as the window reaches them.
  for (int i = 0; i < 100; ++i)
    q.push(QueuedEvent{static_cast<SimTime>(10 * i), seq++, &handler, EventPayload{}});
  for (int i = 0; i < 5; ++i)
    q.push(QueuedEvent{units::kSecond + 1000 * i, seq++, &handler, EventPayload{}});
  EXPECT_GT(q.stats().overflow_events, 0u);
  SimTime last = -1;
  std::size_t popped = 0;
  while (!q.empty()) {
    const SimTime t = q.pop_min().time;
    EXPECT_GE(t, last);
    last = t;
    ++popped;
  }
  EXPECT_EQ(popped, 105u);
  EXPECT_EQ(last, units::kSecond + 4000);
  EXPECT_GT(q.stats().overflow_promotions, 0u);
  EXPECT_EQ(q.stats().overflow_events, 0u);
}

TEST(CalendarQueue, PushBeforeServingWindowRewinds) {
  NullHandler handler;
  CalendarEventQueue q;
  // Anchor the window far out, then push earlier (legal: the engine only
  // requires time >= now, and now is still 0).
  q.push(QueuedEvent{units::kSecond, 0, &handler, EventPayload{}});
  q.push(QueuedEvent{50, 1, &handler, EventPayload{}});
  q.push(QueuedEvent{units::kMillisecond, 2, &handler, EventPayload{}});
  EXPECT_EQ(q.pop_min().time, 50);
  EXPECT_EQ(q.pop_min().time, units::kMillisecond);
  EXPECT_EQ(q.pop_min().time, units::kSecond);
  EXPECT_TRUE(q.empty());
}

// Engine-level differential: a scripted self-scheduling workload runs on the
// real Engine (calendar queue) and on a reference event loop built on the
// binary heap; the dispatch traces must match exactly.
struct TraceEntry {
  SimTime time;
  std::int32_t kind;
  bool operator==(const TraceEntry&) const = default;
};

class ScriptedHandler : public EventHandler {
 public:
  ScriptedHandler(Engine& engine, std::uint64_t seed) : engine_(engine), rng_(seed) {}
  void handle_event(SimTime now, const EventPayload& payload) override {
    trace.push_back({now, payload.kind});
    react(now, payload, [this](SimTime when, EventPayload p) {
      engine_.schedule(when, this, p);
    });
  }
  // Deterministic reaction shared with the reference loop: fan out children,
  // occasional same-time events and far-future backoff timers.
  template <typename Schedule>
  void react(SimTime now, const EventPayload& payload, Schedule schedule) {
    if (payload.kind <= 0) return;
    const int children = static_cast<int>(rng_.uniform(3));
    for (int c = 0; c < children; ++c) {
      SimTime delay = static_cast<SimTime>(rng_.uniform(1500));
      if (rng_.bernoulli(0.05))
        delay = SimTime{20} * units::kMicrosecond << static_cast<int>(rng_.uniform(10));
      schedule(now + delay, EventPayload{payload.kind - 1, 0, 0, 0});
    }
  }
  std::vector<TraceEntry> trace;

 private:
  Engine& engine_;
  Rng rng_;
};

// Minimal re-implementation of the pre-calendar engine: std::priority_queue
// with (time, seq) ordering.
std::vector<TraceEntry> reference_run(std::uint64_t seed, int seeds_events) {
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> queue;
  std::uint64_t seq = 0;
  Rng rng(seed);
  Rng seeder(seed + 1);
  for (int i = 0; i < seeds_events; ++i) {
    const auto when = static_cast<SimTime>(seeder.uniform(5000));
    const auto kind = static_cast<std::int32_t>(1 + seeder.uniform(6));
    queue.push(QueuedEvent{when, seq++, nullptr, EventPayload{kind, 0, 0, 0}});
  }
  std::vector<TraceEntry> trace;
  while (!queue.empty()) {
    const QueuedEvent ev = queue.top();
    queue.pop();
    trace.push_back({ev.time, ev.payload.kind});
    if (ev.payload.kind <= 0) continue;
    const int children = static_cast<int>(rng.uniform(3));
    for (int c = 0; c < children; ++c) {
      SimTime delay = static_cast<SimTime>(rng.uniform(1500));
      if (rng.bernoulli(0.05))
        delay = SimTime{20} * units::kMicrosecond << static_cast<int>(rng.uniform(10));
      queue.push(QueuedEvent{ev.time + delay, seq++, nullptr,
                             EventPayload{ev.payload.kind - 1, 0, 0, 0}});
    }
  }
  return trace;
}

TEST(CalendarQueue, EngineMatchesReferenceHeapLoop) {
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    Engine engine;
    ScriptedHandler handler(engine, seed);
    Rng seeder(seed + 1);
    for (int i = 0; i < 200; ++i) {
      const auto when = static_cast<SimTime>(seeder.uniform(5000));
      const auto kind = static_cast<std::int32_t>(1 + seeder.uniform(6));
      engine.schedule(when, &handler, EventPayload{kind, 0, 0, 0});
    }
    engine.run();
    const std::vector<TraceEntry> expected = reference_run(seed, 200);
    ASSERT_EQ(handler.trace.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_TRUE(handler.trace[i] == expected[i])
          << "seed " << seed << " event " << i << ": got (" << handler.trace[i].time << ", "
          << handler.trace[i].kind << "), want (" << expected[i].time << ", " << expected[i].kind
          << ")";
  }
}

TEST(CalendarQueue, DrainedBucketsGiveTheirStorageBack) {
  // Bursts of same-time events, each burst a bucket further along and the
  // later ones beyond the window, interleaved with draining the previous
  // burst. A bucket that kept its largest-ever capacity would make the
  // reserved slots grow with the number of buckets ever used.
  NullHandler handler;
  CalendarEventQueue calendar;
  constexpr int kBurst = 300;
  constexpr int kRounds = 64;
  std::uint64_t seq = 0;
  std::size_t worst = 0;
  for (int round = 0; round < kRounds; ++round) {
    const SimTime when = static_cast<SimTime>(round) * 5 * units::kMicrosecond;
    for (int i = 0; i < kBurst; ++i)
      calendar.push(QueuedEvent{when, seq++, &handler, EventPayload{}});
    worst = std::max(worst, calendar.reserved_events());
    while (calendar.size() > static_cast<std::size_t>(kBurst)) {
      calendar.pop_min();
      worst = std::max(worst, calendar.reserved_events());
    }
  }
  while (!calendar.empty()) calendar.pop_min();
  EXPECT_EQ(calendar.reserved_events(), 0u);
  const std::size_t peak = calendar.stats().peak_pending;
  EXPECT_GE(peak, static_cast<std::size_t>(kBurst));
  EXPECT_LE(worst, 4 * peak) << "peak pending " << peak;
}

TEST(Engine, SchedulerStatsExposed) {
  Engine engine;
  NullHandler handler;
  for (int i = 0; i < 5000; ++i)
    engine.schedule(static_cast<SimTime>(i * 7), &handler, EventPayload{});
  engine.schedule(units::kSecond, &handler, EventPayload{});
  const SchedulerStats& before = engine.scheduler_stats();
  EXPECT_EQ(before.calendar_events + before.overflow_events, engine.pending());
  EXPECT_GT(before.resizes, 0u);
  engine.run();
  const SchedulerStats& after = engine.scheduler_stats();
  EXPECT_EQ(after.calendar_events, 0u);
  EXPECT_EQ(after.overflow_events, 0u);
  EXPECT_GE(after.peak_pending, 5001u);
}

}  // namespace
}  // namespace dfly
