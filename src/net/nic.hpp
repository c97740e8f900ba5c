// Per-node network interface: an injection queue of pending messages, a
// serializing injection channel (16 GiB/s terminal link), and a credit pool
// for the router's terminal input buffer.
//
// Messages are chunked lazily at injection time so that queueing a large
// message (or an all-to-all burst) costs one descriptor, not one descriptor
// per chunk.
#pragma once

#include <vector>

#include "net/chunk.hpp"
#include "util/units.hpp"

namespace dfly {

struct PendingMsg {
  MsgId msg;
  Bytes bytes_left;
};

/// FIFO of pending messages: a vector consumed from `head_`. It frees its
/// storage when it drains, so an idle NIC owns no heap memory (a std::deque
/// allocates a block at construction), and it drops the consumed prefix
/// before growing once that prefix is half of it.
class PendingQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  std::size_t capacity() const { return items_.capacity(); }  ///< 0 while idle
  PendingMsg& front() { return items_[head_]; }
  auto begin() const { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  auto end() const { return items_.end(); }

  void push_back(const PendingMsg& m) {
    if (head_ > 0 && 2 * head_ >= items_.size() && items_.size() == items_.capacity()) {
      items_.erase(items_.begin(), begin());
      head_ = 0;
    }
    items_.push_back(m);
  }
  void pop_front() {
    if (++head_ == items_.size()) clear();
  }
  void clear() {
    std::vector<PendingMsg>().swap(items_);
    head_ = 0;
  }

 private:
  std::vector<PendingMsg> items_;
  std::size_t head_ = 0;
};

struct Nic {
  SimTime busy_until = 0;
  PendingQueue queue;
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
