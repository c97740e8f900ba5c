// Trace replay with MPI point-to-point semantics (paper §III: trace-based
// simulation, one rank per node, compute time stripped).
//
// Each rank executes its op list in order. Nonblocking operations register
// outstanding handles that the next WaitAll drains; blocking operations stop
// the rank until the network reports completion (send: fully injected;
// recv: matching message fully delivered). Barriers are global and
// zero-latency. The per-rank finish time (when the last op and all
// outstanding handles complete) is the paper's "communication time" metric.
//
// Protocols: messages up to ReplayOptions::eager_threshold are eager (the
// payload is injected immediately — the paper's model); larger ones use
// rendezvous: a small RTS travels to the receiver, the CTS returns once the
// matching receive is posted, and only then is the payload injected.
//
// Message matching is (source rank, tag); generators guarantee unique tags
// for concurrent same-pair messages, making matching unambiguous even when
// adaptive routing reorders deliveries.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "net/network.hpp"
#include "place/placement.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace dfly {

struct ReplayOptions {
  /// Messages larger than this use a rendezvous protocol (RTS -> CTS ->
  /// payload); smaller ones are eager. The default (no limit) is the eager
  /// model the paper's simulations use.
  Bytes eager_threshold = std::numeric_limits<Bytes>::max();
  /// Size of the RTS/CTS control messages.
  Bytes control_bytes = 64;
};

class ReplayEngine : public EventHandler, public MessageSink {
 public:
  /// All referenced objects must outlive the engine. Installs itself as the
  /// network's message sink.
  ReplayEngine(Engine& engine, Network& network, const Trace& trace, const Placement& placement,
               ReplayOptions options = {});

  /// Schedules every rank's first operation at the current engine time.
  void start();

  /// Invoked (during event processing) when the last rank finishes.
  void set_completion_callback(std::function<void(SimTime)> cb) { completion_cb_ = std::move(cb); }

  bool finished() const { return finished_ranks_ == trace_.ranks(); }
  int finished_ranks() const { return finished_ranks_; }
  /// Finish time of `rank`; -1 if it has not finished.
  SimTime rank_finish_time(int rank) const { return ranks_[rank].finish; }

  // MessageSink
  void on_message_injected(MsgId id, std::uint64_t user_data, SimTime now) override;
  void on_message_delivered(MsgId id, std::uint64_t user_data, SimTime now) override;

  // EventHandler
  void handle_event(SimTime now, const EventPayload& payload) override;
  prof::Layer prof_layer() const override { return prof::Layer::Replay; }

 private:
  enum EventKind : std::int32_t { kStart = 1, kResume = 2, kBarrierRelease = 3 };
  enum class Block : std::uint8_t { None, SendInject, RecvArrive, WaitAll, Barrier, Delay, Done };

  /// Network user_data encodes (PacketKind << 60) | sent_ index.
  enum class PacketKind : std::uint64_t { Data = 0, Rts = 1, Cts = 2 };

  struct SentMsg {
    std::int32_t src_rank;
    std::int32_t dst_rank;
    std::int32_t tag;
    Bytes bytes;
    bool blocking;    ///< a blocking Send waits for this message's injection
    bool rendezvous;  ///< payload is injected only after the CTS returns
  };
  struct PendingRecv {
    std::int32_t peer;
    std::int32_t tag;
    bool blocking;
  };
  struct ArrivedMsg {
    std::int32_t src_rank;
    std::int32_t tag;
    bool is_rts;               ///< an RTS awaiting its recv (rendezvous)
    std::uint64_t sent_index;  ///< valid when is_rts
  };
  struct RankState {
    std::size_t cursor = 0;
    int outstanding_isends = 0;
    std::vector<PendingRecv> pending_recvs;
    /// Arrivals no posted recv matched yet, in arrival order. A vector, not
    /// a deque: an empty one owns no storage, and most ranks' stay empty.
    std::vector<ArrivedMsg> unexpected;
    Block block = Block::None;
    SimTime finish = -1;
  };

  void advance(int rank, SimTime now);
  void issue_send(int rank, const TraceOp& op, bool blocking);
  /// Handles a posted recv against already-arrived traffic. Returns true if
  /// the receive is already satisfied (eager data was here); an RTS match
  /// sends the CTS but returns false (the payload is still in flight).
  bool try_match_arrival(int rank, std::int32_t peer, std::int32_t tag);
  void send_cts(std::uint64_t sent_index);
  void maybe_unblock_waitall(int rank, SimTime now);
  void finish_rank(int rank, SimTime now);

  static std::uint64_t encode(PacketKind kind, std::uint64_t index) {
    return (static_cast<std::uint64_t>(kind) << 60) | index;
  }
  static PacketKind kind_of(std::uint64_t user) { return static_cast<PacketKind>(user >> 60); }
  static std::uint64_t index_of(std::uint64_t user) { return user & ((1ull << 60) - 1); }

  Engine& engine_;
  Network& network_;
  const Trace& trace_;
  const Placement& placement_;
  ReplayOptions options_;

  std::vector<RankState> ranks_;
  std::vector<SentMsg> sent_;
  int finished_ranks_ = 0;
  int barrier_arrived_ = 0;
  bool barrier_release_scheduled_ = false;
  std::function<void(SimTime)> completion_cb_;
};

}  // namespace dfly
