// Named-counter registry and periodic snapshot probe.
//
// Subsystems (engine, network, routing, health) register their
// counters under hierarchical names ("net.bytes_delivered",
// "routing.minimal_chosen", ...) instead of every consumer hard-coding which
// ad-hoc field lives where. Two registration forms:
//
//  * counter(name)       — the registry owns a monotonic uint64 cell and hands
//                          back a stable reference for the subsystem to bump.
//  * add_source(name, …) — the value lives in the subsystem; the registry
//                          polls the callback at snapshot time. Kind::Counter
//                          sources are monotonic, Kind::Gauge instantaneous.
//
// CounterProbe reuses the engine-event pattern of metrics/TimelineSampler: a
// self-rescheduling probe that captures one CounterSnapshot per interval until
// asked to stop. Snapshots serialize to JSONL through obs/telemetry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/units.hpp"

namespace dfly {

enum class MetricKind : std::uint8_t { Counter, Gauge };

const char* to_string(MetricKind kind);

/// One reading of every registered metric, sorted by name (deterministic
/// artifact output regardless of registration order).
struct CounterSnapshot {
  SimTime time = 0;
  std::vector<std::pair<std::string, std::int64_t>> values;

  /// Value of `name`; throws std::out_of_range if absent.
  std::int64_t value_of(const std::string& name) const;
  bool contains(const std::string& name) const;
};

class CounterRegistry {
 public:
  /// Find-or-create an owned monotonic counter. The returned reference stays
  /// valid for the registry's lifetime (cells live in a deque).
  std::uint64_t& counter(const std::string& name);

  /// Registers a polled metric whose value lives in the owning subsystem.
  /// Throws std::invalid_argument if `name` is already registered.
  void add_source(const std::string& name, MetricKind kind, std::function<std::int64_t()> read);

  bool contains(const std::string& name) const { return entries_.count(name) > 0; }
  std::size_t size() const { return entries_.size(); }

  /// Reads every metric (owned cells and polled sources) at time `now`.
  CounterSnapshot snapshot(SimTime now) const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::Counter;
    const std::uint64_t* owned = nullptr;     ///< set for counter() cells
    std::function<std::int64_t()> read;       ///< set for add_source entries
  };

  std::map<std::string, Entry> entries_;
  std::deque<std::uint64_t> cells_;
};

/// Serializes one snapshot as a single compact JSON object line ("time_ns"
/// first, then every metric by name) followed by a newline — the line format
/// of counters.jsonl.
void write_snapshot_jsonl(std::ostream& os, const CounterSnapshot& snap);

/// Periodic snapshot probe: samples `registry` every `interval` once started.
/// Stops rescheduling after request_stop() (pending probes would otherwise be
/// the only thing keeping a drained engine alive — callers stop it from a
/// completion callback, exactly like TimelineSampler).
class CounterProbe : public EventHandler {
 public:
  CounterProbe(Engine& engine, const CounterRegistry& registry, SimTime interval);

  /// Schedules the first sample (at the current time). Throws std::logic_error
  /// if the probe was already started.
  void start();
  void request_stop() { stopped_ = true; }

  const std::vector<CounterSnapshot>& snapshots() const { return snapshots_; }

  /// Takes one extra snapshot outside the periodic schedule (used for the
  /// final end-of-run reading).
  void sample_now(SimTime now) { snapshots_.push_back(registry_.snapshot(now)); }

  void handle_event(SimTime now, const EventPayload& payload) override;
  prof::Layer prof_layer() const override { return prof::Layer::Telemetry; }

 private:
  Engine& engine_;
  const CounterRegistry& registry_;
  SimTime interval_;
  bool started_ = false;
  bool stopped_ = false;
  std::vector<CounterSnapshot> snapshots_;
};

}  // namespace dfly
