// Message records and the completion-notification interface.
//
// The network tracks per-message injected/delivered byte counts; the replay
// engine (or any other driver) receives callbacks through MessageSink.
// Records are pool-recycled once both sides complete, keeping memory bounded
// by the number of concurrently in-flight messages even under open-loop
// background traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "net/chunk.hpp"
#include "topo/coordinates.hpp"
#include "util/units.hpp"

namespace dfly {

struct MessageRecord {
  NodeId src = -1;
  NodeId dst = -1;
  Bytes total = 0;
  Bytes injected = 0;
  Bytes delivered = 0;
  std::uint64_t user_data = 0;
  bool notify_injected = false;
  bool notify_delivered = false;
  bool active = false;
};

/// Callbacks fire during event processing at the exact simulation time of the
/// completion. `user_data` is the value passed to Network::send.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  /// Last byte of the message has left the source NIC.
  virtual void on_message_injected(MsgId /*id*/, std::uint64_t /*user_data*/, SimTime /*now*/) {}
  /// Last byte of the message has been delivered to the destination node.
  virtual void on_message_delivered(MsgId /*id*/, std::uint64_t /*user_data*/, SimTime /*now*/) {}
};

class MessagePool {
 public:
  MsgId allocate() {
    if (!free_.empty()) {
      const MsgId id = free_.back();
      free_.pop_back();
      return id;
    }
    records_.emplace_back();
    return static_cast<MsgId>(records_.size() - 1);
  }

  void release(MsgId id) {
    records_[id] = MessageRecord{};
    free_.push_back(id);
  }

  MessageRecord& operator[](MsgId id) { return records_[id]; }
  const MessageRecord& operator[](MsgId id) const { return records_[id]; }
  std::size_t in_flight() const { return records_.size() - free_.size(); }

  // --- checkpoint support: raw slot/free-list access (order-preserving) ---
  const std::vector<MessageRecord>& slots() const { return records_; }
  const std::vector<MsgId>& free_slots() const { return free_; }
  void restore(std::vector<MessageRecord> slots, std::vector<MsgId> free_list) {
    records_ = std::move(slots);
    free_ = std::move(free_list);
  }

 private:
  std::vector<MessageRecord> records_;
  std::vector<MsgId> free_;
};

}  // namespace dfly
