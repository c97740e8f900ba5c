#include "obs/counters.hpp"

#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace dfly {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
  }
  return "?";
}

std::int64_t CounterSnapshot::value_of(const std::string& name) const {
  for (const auto& [n, v] : values)
    if (n == name) return v;
  throw std::out_of_range("counter snapshot: no metric named '" + name + "'");
}

bool CounterSnapshot::contains(const std::string& name) const {
  for (const auto& [n, v] : values)
    if (n == name) return true;
  return false;
}

void write_snapshot_jsonl(std::ostream& os, const CounterSnapshot& snap) {
  obs::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.field("schema_version", 2);
  w.field("time_ns", snap.time);
  for (const auto& [name, value] : snap.values) w.field(name, value);
  w.end_object();
  os << '\n';
}

std::uint64_t& CounterRegistry::counter(const std::string& name) {
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.owned == nullptr)
      throw std::invalid_argument("counter registry: '" + name + "' is a polled source");
    // const_cast is safe: owned cells always point into our own deque.
    return *const_cast<std::uint64_t*>(it->second.owned);
  }
  cells_.push_back(0);
  Entry entry;
  entry.kind = MetricKind::Counter;
  entry.owned = &cells_.back();
  entries_.emplace(name, std::move(entry));
  return cells_.back();
}

void CounterRegistry::add_source(const std::string& name, MetricKind kind,
                                 std::function<std::int64_t()> read) {
  if (entries_.count(name))
    throw std::invalid_argument("counter registry: duplicate metric '" + name + "'");
  Entry entry;
  entry.kind = kind;
  entry.read = std::move(read);
  entries_.emplace(name, std::move(entry));
}

CounterSnapshot CounterRegistry::snapshot(SimTime now) const {
  CounterSnapshot s;
  s.time = now;
  s.values.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    const std::int64_t v =
        entry.owned ? static_cast<std::int64_t>(*entry.owned) : entry.read();
    s.values.emplace_back(name, v);
  }
  return s;  // std::map iteration is already name-sorted
}

CounterProbe::CounterProbe(Engine& engine, const CounterRegistry& registry, SimTime interval)
    : engine_(engine), registry_(registry), interval_(interval) {
  if (interval <= 0) throw std::invalid_argument("counter probe: interval must be positive");
}

void CounterProbe::start() {
  if (started_) throw std::logic_error("counter probe: start() called twice");
  started_ = true;
  engine_.schedule_after(0, this, EventPayload{1, 0, 0, 0});
}

void CounterProbe::handle_event(SimTime now, const EventPayload& /*payload*/) {
  if (stopped_) return;
  sample_now(now);
  engine_.schedule_after(interval_, this, EventPayload{1, 0, 0, 0});
}

}  // namespace dfly
