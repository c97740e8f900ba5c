// Differential and behavioural tests for the timing-wheel event scheduler.
//
// The wheel (CalendarEventQueue) replaced the binary heap on the engine's
// hottest path; these tests pin the contract that made the swap safe: both
// queues dispatch in bit-identical (time, seq) order on any event stream,
// including same-time ties, in-handler scheduling, far-future backoff times
// and the wheel's own edges (window boundary, promotion, bitmap wrap).
#include <gtest/gtest.h>

#include <queue>
#include <stdexcept>
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

TEST(CalendarQueue, NodePoolStaysWithinPeakPending) {
  // Bursts of events on three adjacent times, each burst 5 us further along
  // (beyond the window, so it parks in overflow and promotes), interleaved
  // with draining the previous burst. Drained nodes go back to the free list,
  // so the pool never holds more nodes than were ever pending and stops
  // growing once the pattern repeats.
  NullHandler handler;
  CalendarEventQueue calendar;
  constexpr int kBurst = 300;
  constexpr int kRounds = 64;
  std::uint64_t seq = 0;
  std::size_t after_warmup = 0;
  for (int round = 0; round < kRounds; ++round) {
    const SimTime when = static_cast<SimTime>(round) * 5 * units::kMicrosecond;
    for (int i = 0; i < kBurst; ++i) {
      calendar.push(QueuedEvent{when + i % 3, seq++, &handler, EventPayload{}});
      ASSERT_LE(calendar.reserved_events(), calendar.stats().peak_pending);
    }
    while (calendar.size() > static_cast<std::size_t>(kBurst)) {
      calendar.pop_min();
      ASSERT_LE(calendar.reserved_events(), calendar.stats().peak_pending);
    }
    if (round == 2) after_warmup = calendar.reserved_events();
  }
  while (!calendar.empty()) calendar.pop_min();
  EXPECT_GT(after_warmup, 0u);
  EXPECT_EQ(calendar.reserved_events(), after_warmup);
  EXPECT_LE(calendar.reserved_events(), calendar.stats().peak_pending);
}

TEST(CalendarQueue, WindowEndsOneSlotBeforeAFullRotation) {
  NullHandler handler;
  CalendarEventQueue q;
  constexpr auto kSlots = static_cast<SimTime>(CalendarEventQueue::kSlots);
  q.push(QueuedEvent{100, 0, &handler, EventPayload{}});
  EXPECT_EQ(q.pop_min().time, 100);  // cur = 100
  q.push(QueuedEvent{100 + kSlots, 1, &handler, EventPayload{}});
  q.push(QueuedEvent{100 + kSlots - 1, 2, &handler, EventPayload{}});
  EXPECT_EQ(q.stats().calendar_events, 1u);  // cur + 4095 is the window's last slot
  EXPECT_EQ(q.stats().overflow_events, 1u);  // cur + 4096 shares cur's slot: overflow
  EXPECT_EQ(q.min().time, 100 + kSlots - 1);
  const QueuedEvent last_in_window = q.pop_min();
  EXPECT_EQ(last_in_window.seq, 2u);
  EXPECT_EQ(q.stats().overflow_events, 0u);  // promoted as soon as cur moved
  EXPECT_EQ(q.stats().overflow_promotions, 1u);
  const QueuedEvent first_past = q.pop_min();
  EXPECT_EQ(first_past.time, 100 + kSlots);
  EXPECT_EQ(first_past.seq, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PromotedEventPrecedesALaterDirectPushAtItsTime) {
  NullHandler handler;
  CalendarEventQueue q;
  q.push(QueuedEvent{6000, 0, &handler, EventPayload{}});  // beyond [0, 4096): overflow
  q.push(QueuedEvent{6000, 1, &handler, EventPayload{}});
  q.push(QueuedEvent{3000, 2, &handler, EventPayload{}});
  EXPECT_EQ(q.stats().overflow_events, 2u);
  EXPECT_EQ(q.pop_min().seq, 2u);  // cur = 3000: 6000 enters the window
  EXPECT_EQ(q.stats().overflow_events, 0u);
  q.push(QueuedEvent{6000, 3, &handler, EventPayload{}});  // direct, same slot
  for (std::uint64_t want = 0; want < 2; ++want) EXPECT_EQ(q.pop_min().seq, want);
  EXPECT_EQ(q.pop_min().seq, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PeekThenPushEarlierThanTheMin) {
  // Engine::run_until peeks min() and may then schedule before it; min()
  // must not have moved the window.
  NullHandler handler;
  CalendarEventQueue q;
  q.push(QueuedEvent{20'000, 0, &handler, EventPayload{}});  // overflow only
  EXPECT_EQ(q.min().time, 20'000);
  q.push(QueuedEvent{500, 1, &handler, EventPayload{}});
  EXPECT_EQ(q.min().time, 500);
  q.push(QueuedEvent{200, 2, &handler, EventPayload{}});
  EXPECT_EQ(q.min().time, 200);
  EXPECT_EQ(q.pop_min().time, 200);
  EXPECT_EQ(q.min().time, 500);
  q.push(QueuedEvent{300, 3, &handler, EventPayload{}});
  EXPECT_EQ(q.pop_min().time, 300);
  EXPECT_EQ(q.pop_min().time, 500);
  EXPECT_EQ(q.pop_min().time, 20'000);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, BitmapSearchWrapsFromTheLastWordToTheFirst) {
  NullHandler handler;
  CalendarEventQueue q;
  constexpr auto kSlots = static_cast<SimTime>(CalendarEventQueue::kSlots);
  std::uint64_t seq = 0;
  // Park cur in the last bitmap word, then queue times whose slots are in
  // word 0 (after the wrap) and in the last word on both sides of cur's slot.
  const SimTime cur = 3 * kSlots - 6;
  q.push(QueuedEvent{cur, seq++, &handler, EventPayload{}});
  EXPECT_EQ(q.pop_min().time, cur);
  const SimTime times[] = {cur + 70, cur + 4, cur + 6, cur + kSlots - 1, cur + 5, cur + 6};
  for (const SimTime t : times) q.push(QueuedEvent{t, seq++, &handler, EventPayload{}});
  const SimTime want[] = {cur + 4, cur + 5, cur + 6, cur + 6, cur + 70, cur + kSlots - 1};
  for (const SimTime t : want) EXPECT_EQ(q.pop_min().time, t);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, DifferentialMeasuredTrafficShape) {
  // Shaped like the recorded simulator streams: a steady pending set of a
  // few thousand, delays of 0-2047 ns with heavy same-time ties (many
  // events share a few exact delays), and a handful of 1 ms periodic ticks
  // that live in the overflow tier.
  Rng rng(2024);
  NullHandler handler;
  HeapEventQueue heap;
  CalendarEventQueue calendar;
  std::uint64_t seq = 0;
  auto push = [&](SimTime when, std::int32_t kind) {
    const QueuedEvent ev{when, seq++, &handler, EventPayload{kind, 0, 0, 0}};
    heap.push(ev);
    calendar.push(ev);
  };
  constexpr SimTime kTiedDelays[] = {0, 1, 24, 100, 100, 512, 1024, 2047};
  for (int i = 0; i < 4; ++i) push(units::kMillisecond + i, 1);  // ticks
  for (int i = 0; i < 3000; ++i) push(static_cast<SimTime>(rng.uniform(2048)), 0);
  std::uint64_t ops = 0;
  while (ops < 1'200'000) {
    const QueuedEvent a = heap.pop_min();
    const QueuedEvent b = calendar.pop_min();
    ASSERT_EQ(a.time, b.time) << "op " << ops;
    ASSERT_EQ(a.seq, b.seq) << "op " << ops;
    ++ops;
    if (a.payload.kind == 1) {
      push(a.time + units::kMillisecond, 1);
      ++ops;
      continue;
    }
    const int children = heap.size() < 2000 ? 2 : heap.size() > 4000 ? 0 : 1;
    for (int c = 0; c < children; ++c, ++ops) {
      const SimTime delay = rng.bernoulli(0.5)
                                ? kTiedDelays[rng.uniform(std::size(kTiedDelays))]
                                : static_cast<SimTime>(rng.uniform(2048));
      push(a.time + delay, 0);
    }
  }
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    const QueuedEvent a = heap.pop_min();
    const QueuedEvent b = calendar.pop_min();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_GT(calendar.stats().overflow_promotions, 0u);
}

TEST(Engine, SchedulerStatsExposed) {
  Engine engine;
  NullHandler handler;
  for (int i = 0; i < 5000; ++i)
    engine.schedule(static_cast<SimTime>(i * 7), &handler, EventPayload{});
  engine.schedule(units::kSecond, &handler, EventPayload{});
  const SchedulerStats& before = engine.scheduler_stats();
  EXPECT_EQ(before.calendar_events + before.overflow_events, engine.pending());
  EXPECT_EQ(before.calendar_events, CalendarEventQueue::kSlots / 7 + 1);  // times 0..4095
  EXPECT_EQ(before.buckets, CalendarEventQueue::kSlots);
  EXPECT_EQ(before.bucket_width, 1);
  engine.run();
  const SchedulerStats& after = engine.scheduler_stats();
  EXPECT_EQ(after.calendar_events, 0u);
  EXPECT_EQ(after.overflow_events, 0u);
  EXPECT_EQ(after.resizes, 0u);
  EXPECT_EQ(after.overflow_promotions, 5000u - (CalendarEventQueue::kSlots / 7 + 1) + 1);
  EXPECT_GE(after.peak_pending, 5001u);
}

class PastScheduler : public EventHandler {
 public:
  explicit PastScheduler(Engine& engine) : engine_(engine) {}
  void handle_event(SimTime now, const EventPayload& payload) override {
    if (payload.kind == 1) engine_.schedule(now - 100, this, EventPayload{});
  }

 private:
  Engine& engine_;
};

TEST(Engine, SchedulingIntoThePastThrows) {
  // Release builds too: the clock must never run backwards.
  Engine engine;
  PastScheduler handler(engine);
  engine.schedule(1000, &handler, EventPayload{1, 0, 0, 0});
  EXPECT_THROW(engine.run(), std::logic_error);
  EXPECT_EQ(engine.now(), 1000);
  EXPECT_EQ(engine.pending(), 0u);
  // A negative time, which is what an overflowing `now + delay` wraps to.
  EXPECT_THROW(engine.schedule(-5, &handler, EventPayload{}), std::logic_error);
  EXPECT_EQ(engine.pending(), 0u);
}

}  // namespace
}  // namespace dfly
