// Time-series sampling of network state: a periodic probe that records
// aggregate throughput and queue occupancy, turning the end-of-run metrics
// into congestion-evolution timelines (useful for studying the bursty
// background-traffic experiments).
#pragma once

#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"

namespace dfly {

struct TimelineSample {
  SimTime time = 0;
  Bytes bytes_delivered = 0;       ///< cumulative
  Bytes queued_bytes = 0;          ///< instantaneous, all router output queues
  // Per-port-class breakdown of queued_bytes (local covers row + column
  // ports): which link class congestion sits on, per sample.
  Bytes queued_local = 0;
  Bytes queued_global = 0;
  Bytes queued_terminal = 0;
  std::size_t messages_in_flight = 0;
  std::uint64_t chunks_forwarded = 0;  ///< cumulative
};

class TimelineSampler : public EventHandler {
 public:
  /// Samples `network` every `interval` once started. Sampling stops when
  /// request_stop() is called or the engine drains (pending probes are the
  /// only thing that would keep it alive, so callers stop it from a
  /// completion callback).
  TimelineSampler(Engine& engine, const Network& network, SimTime interval);

  /// Schedules the first probe; throws std::logic_error on a second call (a
  /// double start would double the sampling cadence).
  void start();
  void request_stop() { stopped_ = true; }

  const std::vector<TimelineSample>& samples() const { return samples_; }

  /// Delivered-bytes rate between consecutive samples, GB/s.
  std::vector<double> throughput_gbps() const;

  /// Renders the timeline as a table (time ms, throughput, queued MB, ...).
  Table to_table(const std::string& title) const;

  // EventHandler
  void handle_event(SimTime now, const EventPayload& payload) override;
  prof::Layer prof_layer() const override { return prof::Layer::Telemetry; }

 private:
  void sample(SimTime now);

  Engine& engine_;
  const Network& network_;
  SimTime interval_;
  bool started_ = false;
  bool stopped_ = false;
  std::vector<TimelineSample> samples_;
};

}  // namespace dfly
