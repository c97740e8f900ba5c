// Per-node network interface: an injection queue of pending messages, a
// serializing injection channel (16 GiB/s terminal link), and a credit pool
// for the router's terminal input buffer.
//
// Messages are chunked lazily at injection time so that queueing a large
// message (or an all-to-all burst) costs one descriptor, not one descriptor
// per chunk.
#pragma once

#include <deque>

#include "net/chunk.hpp"
#include "util/units.hpp"

namespace dfly {

struct PendingMsg {
  MsgId msg;
  Bytes bytes_left;
};

struct Nic {
  SimTime busy_until = 0;
  std::deque<PendingMsg> queue;
  Bytes credits = 0;  ///< free space in the router's terminal input buffer

  // --- metrics ---
  Bytes traffic = 0;           ///< bytes injected
  SimTime blocked_since = -1;  ///< injection stalled on credits
  SimTime saturated_time = 0;

  void begin_blocked(SimTime now) {
    if (blocked_since < 0) blocked_since = now;
  }
  void end_blocked(SimTime now) {
    if (blocked_since >= 0) {
      saturated_time += now - blocked_since;
      blocked_since = -1;
    }
  }
};

}  // namespace dfly
