// Network model parameters.
//
// Defaults are the Theta numbers from the paper's Section II: 16 GiB/s
// terminal, 5.25 GiB/s local, 4.69 GiB/s global links; 8 KiB / 8 KiB / 16 KiB
// per-VC buffers for terminal / local / global channels. Link latencies are
// not stated in the paper; we use typical Aries-class values (copper local
// links ~100 ns, optical global links ~800 ns).
#pragma once

#include "topo/dragonfly.hpp"
#include "util/units.hpp"

namespace dfly {

/// Output-port arbitration among queued chunks.
enum class Arbitration {
  FirstSendable,  ///< oldest queued chunk whose VC has credits (default)
  RoundRobinVc,   ///< rotate service across virtual channels (fairness)
};

const char* to_string(Arbitration policy);

struct NetworkParams {
  /// Messages are split into chunks of at most this size (CODES default 2 KiB)
  /// and each chunk is store-and-forwarded per hop.
  Bytes chunk_bytes = 2 * units::kKiB;

  Arbitration arbitration = Arbitration::FirstSendable;

  double terminal_bandwidth_gib = 16.0;
  double local_bandwidth_gib = 5.25;
  double global_bandwidth_gib = 4.69;

  SimTime terminal_latency = 100;
  SimTime local_latency = 100;
  SimTime global_latency = 800;
  /// Router pipeline (routing + arbitration + SerDes) delay added to every
  /// chunk arrival at a router; Aries-class hardware pays ~0.5 us per hop.
  /// This is what makes extra (nonminimal) hops genuinely expensive for
  /// latency-bound traffic.
  SimTime router_delay = 500;

  Bytes terminal_vc_buffer = 8 * units::kKiB;
  Bytes local_vc_buffer = 8 * units::kKiB;
  Bytes global_vc_buffer = 16 * units::kKiB;

  static NetworkParams theta() { return NetworkParams{}; }

  /// Bandwidth of a channel of the given kind, in bytes per nanosecond.
  double bandwidth(PortKind kind) const {
    return units::gib_per_s(
        by_kind(kind, terminal_bandwidth_gib, local_bandwidth_gib, global_bandwidth_gib));
  }
  SimTime latency(PortKind kind) const {
    return by_kind(kind, terminal_latency, local_latency, global_latency);
  }
  /// Per-VC input buffer size on the downstream side of a channel.
  Bytes vc_buffer(PortKind kind) const {
    return by_kind(kind, terminal_vc_buffer, local_vc_buffer, global_vc_buffer);
  }

  void validate() const;

 private:
  /// The terminal, local (row or column) or global value.
  template <typename T>
  static T by_kind(PortKind kind, T terminal, T local, T global) {
    return kind == PortKind::Terminal ? terminal : kind == PortKind::Global ? global : local;
  }
};

}  // namespace dfly
