// Background-traffic driver (paper §IV-C).
//
// A synthetic job occupies every node not assigned to the target application
// and issues messages open-loop:
//   UniformRandom — each tick, every background node sends one message to a
//                   uniformly random other background node (balanced external
//                   traffic; the paper uses small intervals, 0.002-1 ms).
//   Bursty        — each tick, every background node sends large messages to
//                   `burst_fanout` distinct background peers (an all-to-all
//                   burst; the paper uses long intervals, 0.1-60 ms; the
//                   fanout caps the O(n^2) message count at simulation scale,
//                   see DESIGN.md).
// The driver stops scheduling new ticks after request_stop() — the
// interference harness calls it when the target application completes — and
// in-flight traffic then drains naturally.
#pragma once

#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace dfly {

struct BackgroundSpec {
  enum class Pattern { UniformRandom, Bursty };
  Pattern pattern = Pattern::UniformRandom;
  Bytes message_bytes = 16 * units::kKiB;
  SimTime interval = 100 * units::kMicrosecond;
  int burst_fanout = 16;  ///< Bursty only: destinations per node per tick
  SimTime start = 0;

  /// Load injected per tick across all background nodes — the paper's
  /// Table II "peak background traffic load".
  Bytes peak_load(std::size_t nodes) const {
    const std::int64_t per_node =
        pattern == Pattern::Bursty ? message_bytes * burst_fanout : message_bytes;
    return per_node * static_cast<Bytes>(nodes);
  }
};

const char* to_string(BackgroundSpec::Pattern pattern);

class BackgroundDriver : public EventHandler {
 public:
  BackgroundDriver(Engine& engine, Network& network, std::vector<NodeId> nodes,
                   const BackgroundSpec& spec, Rng rng);

  /// Schedules the first tick.
  void start();
  /// No further ticks are scheduled after this call.
  void request_stop() { stopped_ = true; }

  Bytes bytes_issued() const { return bytes_issued_; }
  std::uint64_t messages_issued() const { return messages_issued_; }
  std::uint64_t ticks() const { return ticks_; }

  // EventHandler
  void handle_event(SimTime now, const EventPayload& payload) override;

 private:
  void tick(SimTime now);

  Engine& engine_;
  Network& network_;
  std::vector<NodeId> nodes_;
  BackgroundSpec spec_;
  Rng rng_;
  bool stopped_ = false;
  Bytes bytes_issued_ = 0;
  std::uint64_t messages_issued_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace dfly
