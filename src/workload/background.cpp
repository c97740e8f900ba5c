#include "workload/background.hpp"

#include <cassert>
#include <stdexcept>

namespace dfly {

const char* to_string(BackgroundSpec::Pattern pattern) {
  switch (pattern) {
    case BackgroundSpec::Pattern::UniformRandom: return "uniform-random";
    case BackgroundSpec::Pattern::Bursty: return "bursty";
  }
  return "?";
}

BackgroundDriver::BackgroundDriver(Engine& engine, Network& network, std::vector<NodeId> nodes,
                                   const BackgroundSpec& spec, Rng rng)
    : engine_(engine), network_(network), nodes_(std::move(nodes)), spec_(spec), rng_(rng) {
  if (nodes_.size() < 2) throw std::invalid_argument("background job needs >= 2 nodes");
  if (spec_.interval <= 0) throw std::invalid_argument("background interval must be positive");
  if (spec_.message_bytes <= 0) throw std::invalid_argument("background message size must be positive");
}

void BackgroundDriver::start() {
  engine_.schedule(spec_.start, this, EventPayload{1, 0, 0, 0});
}

void BackgroundDriver::tick(SimTime /*now*/) {
  ++ticks_;
  const auto n = static_cast<std::uint64_t>(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeId src = nodes_[i];
    const int fanout = spec_.pattern == BackgroundSpec::Pattern::Bursty ? spec_.burst_fanout : 1;
    for (int f = 0; f < fanout; ++f) {
      // Uniform peer among the other background nodes.
      std::size_t j = static_cast<std::size_t>(rng_.uniform(n - 1));
      if (j >= i) ++j;
      network_.send(src, nodes_[j], spec_.message_bytes);
      bytes_issued_ += spec_.message_bytes;
      ++messages_issued_;
    }
  }
}

void BackgroundDriver::handle_event(SimTime now, const EventPayload& /*payload*/) {
  if (stopped_) return;
  tick(now);
  engine_.schedule_after(spec_.interval, this, EventPayload{1, 0, 0, 0});
}

}  // namespace dfly
