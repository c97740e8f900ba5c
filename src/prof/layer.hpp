// The exclusive wall-clock layers of a profiled run (DESIGN.md §11).
//
// Every sampled dispatch charges each of its nanoseconds to exactly one
// layer, so the layer estimates add up to the time the engine spent
// dispatching. Kept apart from profiler.hpp so the event queue can tag its
// handlers without pulling in the profiler.
#pragma once

#include <cstdint>

namespace dfly::prof {

/// Keep in sync with to_string().
enum class Layer : std::uint8_t {
  Scheduler = 0,  ///< the pop side: deadline check, min and pop_min
  Network,        ///< Network handler self time: arbitration, injection, delivery
  Routing,        ///< RoutingAlgorithm::compute at injection
  Replay,         ///< ReplayEngine: its own events and the MessageSink callbacks
  Telemetry,      ///< the counter probe
  Other,          ///< health monitor, background driver, any other handler
  kCount
};

const char* to_string(Layer layer);

}  // namespace dfly::prof
