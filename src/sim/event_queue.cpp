#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "ckpt/snapshot_io.hpp"

namespace dfly {

namespace {
constexpr std::size_t kMinBuckets = 16;
// Starting width (2^10 ns) before the first occupancy-driven retune; any
// value works for correctness, the first resize replaces it with a measured
// one.
constexpr int kInitialWidthShift = 10;
// Width retune samples at most this many pending events.
constexpr std::size_t kWidthSample = 64;
// Dispatch-gap window: width retunes prefer the spacing of the last this many
// dispatched events once available.
constexpr std::size_t kGapWindow = 64;
// A sorted serving bucket larger than this triggers a width retune: per-push
// ordered inserts into a huge vector are one calendar-queue failure mode.
constexpr std::size_t kServeBucketLimit = 128;
// Scanning more than this many empty buckets in one locate triggers the
// opposite retune: buckets much narrower than the dispatch gap make every
// pop crawl the array.
constexpr std::size_t kScanLimit = 64;
// Pathology-triggered retunes only fire this many pops after the last resize
// (so the dispatch-gap ring has refreshed) and only when the width is off by
// at least kRetuneBand powers of two (hysteresis against estimator noise).
constexpr std::uint64_t kRetuneCooldown = 4 * kGapWindow;
constexpr int kRetuneBand = 2;

// Smallest power-of-two shift s with (1 << s) >= w.
int shift_for(SimTime w) {
  if (w <= 1) return 0;
  return std::bit_width(static_cast<std::uint64_t>(w - 1));
}
}  // namespace

CalendarEventQueue::CalendarEventQueue()
    : buckets_(kMinBuckets), bucket_mask_(kMinBuckets - 1), width_shift_(kInitialWidthShift) {
  pop_times_.resize(kGapWindow, 0);
}

void CalendarEventQueue::push(const QueuedEvent& ev) {
  assert(ev.time >= 0 && "calendar queue requires non-negative times");
  const std::uint64_t b = bucket_of(ev.time);
  if (size_ == 0) {
    cur_b_ = b;  // re-anchor the window on the first event
  } else if (b < cur_b_) {
    rewind(b);
  }
  if (b >= cur_b_ + buckets_.size()) {
    overflow_.push(ev);
    overflow_min_b_ = std::min(overflow_min_b_, b);
  } else {
    insert_calendar(ev);
  }
  ++size_;
  if (size_ > stats_.peak_pending) stats_.peak_pending = size_;
  if (size_ > 2 * buckets_.size()) resize(2 * buckets_.size());
}

const QueuedEvent& CalendarEventQueue::min() {
  locate_min();
  return slot(cur_b_).events.back();
}

QueuedEvent CalendarEventQueue::pop_min() {
  locate_min();
  Bucket& bk = slot(cur_b_);
  QueuedEvent ev = bk.events.back();
  bk.events.pop_back();
  if (bk.events.empty()) release(bk);
  --cal_size_;
  --size_;
  pop_times_[pop_times_next_] = ev.time;
  if (++pop_times_next_ == kGapWindow) {
    pop_times_next_ = 0;
    pop_times_full_ = true;
  }
  ++pops_since_resize_;
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 4)
    resize(buckets_.size() / 2);
  return ev;
}

void CalendarEventQueue::locate_min() {
  assert(size_ > 0);
  for (int attempt = 0;; ++attempt) {
    if (cal_size_ == 0) {
      // Everything pending is far-future: jump the window over the gap
      // instead of sliding bucket by bucket.
      cur_b_ = bucket_of(overflow_.top().time);
      promote_overflow();
    } else if (overflow_min_b_ < cur_b_ + buckets_.size()) {
      promote_overflow();
    }
    std::size_t scanned = 0;
    while (slot(cur_b_).events.empty()) {
      ++cur_b_;
      ++scanned;
      if (overflow_min_b_ < cur_b_ + buckets_.size()) promote_overflow();
    }
    Bucket& bk = slot(cur_b_);
    if (!bk.sorted) {
      std::sort(bk.events.begin(), bk.events.end(), std::greater<>{});
      bk.sorted = true;
    }
    // Both calendar-queue pathologies show up right here: a bloated serving
    // bucket (width too wide for the serving-point density) or a long crawl
    // over empty buckets (width too narrow for the dispatch gap). Either way
    // the cure is retuning the width to the observed dispatch spacing. The
    // cooldown and the dead band keep a noisy gap estimate from thrashing the
    // width back and forth; one retry suffices because the rebuilt calendar
    // reproduces the estimate.
    if (attempt == 0 && pops_since_resize_ >= kRetuneCooldown &&
        (bk.events.size() > kServeBucketLimit || scanned > kScanLimit)) {
      const int shift = tuned_width_shift({});
      if (shift >= width_shift_ + kRetuneBand || shift <= width_shift_ - kRetuneBand) {
        resize(buckets_.size());
        continue;
      }
    }
    return;
  }
}

void CalendarEventQueue::promote_overflow() {
  const std::uint64_t window_end = cur_b_ + buckets_.size();
  while (!overflow_.empty() && bucket_of(overflow_.top().time) < window_end) {
    insert_calendar(overflow_.top());
    overflow_.pop();
    ++stats_.overflow_promotions;
  }
  overflow_min_b_ = overflow_.empty() ? kNoBucket : bucket_of(overflow_.top().time);
}

void CalendarEventQueue::release(Bucket& bk) {
  std::vector<QueuedEvent>().swap(bk.events);
  bk.sorted = false;
}

std::size_t CalendarEventQueue::reserved_events() const {
  std::size_t slots = 0;
  for (const Bucket& bk : buckets_) slots += bk.events.capacity();
  return slots;
}

void CalendarEventQueue::insert_calendar(const QueuedEvent& ev) {
  Bucket& bk = slot(bucket_of(ev.time));
  if (bk.sorted) {
    // Descending order, min at the back: ties insert towards the front so an
    // equal-time event with a larger seq pops after the ones already queued.
    const auto it = std::upper_bound(bk.events.begin(), bk.events.end(), ev, std::greater<>{});
    bk.events.insert(it, ev);
  } else {
    bk.events.push_back(ev);
  }
  ++cal_size_;
}

void CalendarEventQueue::rewind(std::uint64_t new_cur) {
  cur_b_ = new_cur;
  const std::uint64_t window_end = cur_b_ + buckets_.size();
  for (Bucket& bk : buckets_) {
    const auto keep_end =
        std::stable_partition(bk.events.begin(), bk.events.end(), [&](const QueuedEvent& e) {
          return bucket_of(e.time) < window_end;
        });
    for (auto it = keep_end; it != bk.events.end(); ++it) {
      overflow_min_b_ = std::min(overflow_min_b_, bucket_of(it->time));
      overflow_.push(*it);
      --cal_size_;
    }
    bk.events.erase(keep_end, bk.events.end());
    if (bk.events.empty()) release(bk);
  }
}

int CalendarEventQueue::tuned_width_shift(const std::vector<QueuedEvent>& all) const {
  // Brown's rule in both branches: width ~ 3x the per-event gap keeps the
  // serving bucket at a handful of events; rounded up to a power of two for
  // shift-based hashing.
  if (pop_times_full_) {
    // The dispatch-gap estimate measures the density the serving bucket
    // actually experiences — unlike the pending set, it is not skewed by
    // far-future timers parked in the overflow tier.
    SimTime lo = pop_times_[0], hi = pop_times_[0];
    for (const SimTime t : pop_times_) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    const SimTime width = 3 * (hi - lo) / static_cast<SimTime>(kGapWindow - 1);
    return shift_for(std::max<SimTime>(1, width));
  }
  if (all.size() < 2) return width_shift_;
  // No dispatch history yet (pre-run scheduling burst): evenly strided sample
  // of pending event times. After sorting, consecutive samples are ~stride
  // events apart, so median_gap / stride estimates the typical per-event
  // spacing in the dense region while staying robust against far-future
  // outliers (which only perturb the top gaps).
  std::vector<SimTime> sample;
  const std::size_t stride = std::max<std::size_t>(1, all.size() / kWidthSample);
  for (std::size_t i = 0; i < all.size(); i += stride) sample.push_back(all[i].time);
  std::sort(sample.begin(), sample.end());
  std::vector<SimTime> gaps;
  gaps.reserve(sample.size() - 1);
  for (std::size_t i = 1; i < sample.size(); ++i) gaps.push_back(sample[i] - sample[i - 1]);
  std::sort(gaps.begin(), gaps.end());
  const SimTime median = gaps[gaps.size() / 2];
  const SimTime width = 3 * median / static_cast<SimTime>(stride);
  return shift_for(std::max<SimTime>(1, width));
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
  QueuedEvent ev;
  ev.time = r.i64();
  ev.seq = r.u64();
  ev.handler = handler_of(r.u32());
  ev.payload.kind = r.i32();
  ev.payload.a = r.u32();
  ev.payload.b = r.u64();
  ev.payload.c = r.u64();
  if (ev.time < 0) throw std::runtime_error("snapshot: negative event time");
  return ev;
}

// Serialized size of one event; the Reader's count() guard uses it to bound
// per-bucket allocations against the bytes actually present.
constexpr std::size_t kEventBytes = 8 + 8 + 4 + 4 + 4 + 8 + 8;

}  // namespace

void CalendarEventQueue::save_state(
    ckpt::Writer& w, const std::function<std::uint32_t(EventHandler*)>& id_of) const {
  w.size(size_);
  w.size(cal_size_);
  w.i32(width_shift_);
  w.size(buckets_.size());
  w.u64(cur_b_);
  for (const Bucket& bk : buckets_) {
    w.boolean(bk.sorted);
    w.size(bk.events.size());
    for (const QueuedEvent& ev : bk.events) save_event(w, ev, id_of);
  }
  // Drain a copy of the overflow heap in (time, seq) order; re-pushing the
  // sorted sequence at load time yields an equivalent heap (keys are unique,
  // so the pop order — the only observable — is identical).
  auto overflow = overflow_;
  w.size(overflow.size());
  while (!overflow.empty()) {
    save_event(w, overflow.top(), id_of);
    overflow.pop();
  }
  w.u64(overflow_min_b_);
  w.size(pop_times_.size());
  for (const SimTime t : pop_times_) w.i64(t);
  w.size(pop_times_next_);
  w.boolean(pop_times_full_);
  w.u64(pops_since_resize_);
  w.size(stats_.peak_pending);
  w.u64(stats_.resizes);
  w.u64(stats_.overflow_promotions);
}

void CalendarEventQueue::load_state(
    ckpt::Reader& r, const std::function<EventHandler*(std::uint32_t)>& handler_of) {
  assert(size_ == 0 && "load_state requires a fresh queue");
  size_ = r.count(0);
  cal_size_ = r.count(0);
  width_shift_ = r.i32();
  if (width_shift_ < 0 || width_shift_ > 62)
    throw std::runtime_error("snapshot: bad calendar width shift");
  const std::size_t nbuckets = r.count(1);
  if (nbuckets < kMinBuckets || !std::has_single_bit(nbuckets))
    throw std::runtime_error("snapshot: bad calendar bucket count");
  cur_b_ = r.u64();
  buckets_.assign(nbuckets, Bucket{});
  bucket_mask_ = nbuckets - 1;
  std::size_t cal_loaded = 0;
  for (Bucket& bk : buckets_) {
    bk.sorted = r.boolean();
    const std::size_t n = r.count(kEventBytes);
    bk.events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) bk.events.push_back(load_event(r, handler_of));
    cal_loaded += n;
  }
  const std::size_t overflow_n = r.count(kEventBytes);
  for (std::size_t i = 0; i < overflow_n; ++i) overflow_.push(load_event(r, handler_of));
  if (cal_loaded != cal_size_ || cal_loaded + overflow_n != size_)
    throw std::runtime_error("snapshot: calendar event counts inconsistent");
  overflow_min_b_ = r.u64();
  const std::size_t ring = r.count(sizeof(SimTime));
  if (ring != pop_times_.size())
    throw std::runtime_error("snapshot: dispatch-gap ring size mismatch");
  for (SimTime& t : pop_times_) t = r.i64();
  pop_times_next_ = r.count(0);
  if (pop_times_next_ >= pop_times_.size())
    throw std::runtime_error("snapshot: bad dispatch-gap ring cursor");
  pop_times_full_ = r.boolean();
  pops_since_resize_ = r.u64();
  stats_.peak_pending = r.count(0);
  stats_.resizes = r.u64();
  stats_.overflow_promotions = r.u64();
}

void CalendarEventQueue::resize(std::size_t nbuckets) {
  ++stats_.resizes;
  pops_since_resize_ = 0;
  // Only the calendar tier is rebucketed. The overflow heap is already in
  // (time, seq) order independent of the bucket width, so it is left alone —
  // rehashing tens of thousands of parked backoff timers on every retune was
  // the dominant resize cost. Its cached min bucket just needs recomputing
  // under the new width, and the lazy promotion in locate_min() does the rest.
  std::vector<QueuedEvent> all;
  all.reserve(cal_size_);
  for (const Bucket& bk : buckets_) all.insert(all.end(), bk.events.begin(), bk.events.end());
  width_shift_ = tuned_width_shift(all);
  // A fresh array: assigning over the old one would keep every bucket's
  // largest-ever capacity.
  buckets_ = std::vector<Bucket>(nbuckets);
  bucket_mask_ = nbuckets - 1;
  cal_size_ = 0;
  // Anchor the window at the global minimum so no pending event — calendar or
  // overflow — maps to a bucket before cur_b_ (promotion into a slot behind
  // the serving position would corrupt the wrapped bucket array).
  SimTime min_t = overflow_.empty() ? SimTime{0} : overflow_.top().time;
  if (!all.empty()) {
    min_t = all.front().time;
    for (const QueuedEvent& e : all) min_t = std::min(min_t, e.time);
    if (!overflow_.empty()) min_t = std::min(min_t, overflow_.top().time);
  }
  cur_b_ = bucket_of(min_t);
  overflow_min_b_ = overflow_.empty() ? kNoBucket : bucket_of(overflow_.top().time);
  for (const QueuedEvent& e : all) {
    const std::uint64_t b = bucket_of(e.time);
    if (b >= cur_b_ + buckets_.size()) {
      overflow_.push(e);
      overflow_min_b_ = std::min(overflow_min_b_, b);
    } else {
      insert_calendar(e);
    }
  }
}

}  // namespace dfly
