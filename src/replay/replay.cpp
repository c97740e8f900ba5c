#include "replay/replay.hpp"

#include <cassert>
#include <stdexcept>
#include <string>


namespace dfly {

ReplayEngine::ReplayEngine(Engine& engine, Network& network, const Trace& trace,
                           const Placement& placement, ReplayOptions options)
    : engine_(engine), network_(network), trace_(trace), placement_(placement),
      options_(options) {
  if (options_.eager_threshold < 0 || options_.control_bytes <= 0)
    throw std::invalid_argument("replay: bad protocol options");
  if (placement_.ranks() != trace_.ranks())
    throw std::invalid_argument("replay: placement rank count (" +
                                std::to_string(placement_.ranks()) + ") != trace rank count (" +
                                std::to_string(trace_.ranks()) + ")");
  ranks_.resize(trace_.ranks());
  network_.set_sink(this);
}

void ReplayEngine::start() {
  engine_.schedule_after(0, this, EventPayload{kStart, 0, 0, 0});
}

void ReplayEngine::issue_send(int rank, const TraceOp& op, bool blocking) {
  const auto idx = static_cast<std::uint64_t>(sent_.size());
  const bool rendezvous = op.bytes > options_.eager_threshold;
  sent_.push_back(SentMsg{rank, op.peer, op.tag, op.bytes, blocking, rendezvous});
  const NodeId src = placement_.node_of_rank(rank);
  const NodeId dst = placement_.node_of_rank(op.peer);
  if (rendezvous) {
    // Request-to-send; the payload follows once the CTS comes back.
    network_.send(src, dst, options_.control_bytes, encode(PacketKind::Rts, idx),
                  /*notify_injected=*/false, /*notify_delivered=*/true);
  } else {
    network_.send(src, dst, op.bytes, encode(PacketKind::Data, idx),
                  /*notify_injected=*/true, /*notify_delivered=*/true);
  }
}

void ReplayEngine::send_cts(std::uint64_t sent_index) {
  const SentMsg& sm = sent_[sent_index];
  const NodeId receiver = placement_.node_of_rank(sm.dst_rank);
  const NodeId sender = placement_.node_of_rank(sm.src_rank);
  network_.send(receiver, sender, options_.control_bytes, encode(PacketKind::Cts, sent_index),
                /*notify_injected=*/false, /*notify_delivered=*/true);
}

bool ReplayEngine::try_match_arrival(int rank, std::int32_t peer, std::int32_t tag) {
  RankState& rs = ranks_[rank];
  for (auto it = rs.unexpected.begin(); it != rs.unexpected.end(); ++it) {
    if (it->src_rank == peer && it->tag == tag) {
      const bool is_rts = it->is_rts;
      const std::uint64_t idx = it->sent_index;
      rs.unexpected.erase(it);
      if (is_rts) {
        send_cts(idx);  // payload still in flight; the recv stays pending
        return false;
      }
      return true;
    }
  }
  return false;
}

void ReplayEngine::advance(int rank, SimTime now) {
  RankState& rs = ranks_[rank];
  if (rs.block == Block::Done) return;
  rs.block = Block::None;
  const auto& ops = trace_.rank(rank);

  while (rs.cursor < ops.size()) {
    const TraceOp& op = ops[rs.cursor];
    switch (op.kind) {
      case OpKind::Isend:
        assert(op.peer != rank && "self-messages are not modelled");
        issue_send(rank, op, /*blocking=*/false);
        ++rs.outstanding_isends;
        ++rs.cursor;
        break;
      case OpKind::Send:
        issue_send(rank, op, /*blocking=*/true);
        ++rs.cursor;
        rs.block = Block::SendInject;
        return;
      case OpKind::Irecv:
        ++rs.cursor;
        if (!try_match_arrival(rank, op.peer, op.tag))
          rs.pending_recvs.push_back(PendingRecv{op.peer, op.tag, false});
        break;
      case OpKind::Recv:
        ++rs.cursor;
        if (!try_match_arrival(rank, op.peer, op.tag)) {
          rs.pending_recvs.push_back(PendingRecv{op.peer, op.tag, true});
          rs.block = Block::RecvArrive;
          return;
        }
        break;
      case OpKind::WaitAll:
        if (rs.outstanding_isends > 0 || !rs.pending_recvs.empty()) {
          rs.block = Block::WaitAll;
          return;
        }
        ++rs.cursor;
        break;
      case OpKind::Barrier: {
        ++rs.cursor;
        rs.block = Block::Barrier;
        ++barrier_arrived_;
        if (barrier_arrived_ == trace_.ranks() && !barrier_release_scheduled_) {
          barrier_release_scheduled_ = true;
          engine_.schedule_after(0, this, EventPayload{kBarrierRelease, 0, 0, 0});
        }
        return;
      }
      case OpKind::Delay:
        ++rs.cursor;
        if (op.delay > 0) {
          rs.block = Block::Delay;
          engine_.schedule_after(op.delay, this,
                                 EventPayload{kResume, 0, static_cast<std::uint64_t>(rank), 0});
          return;
        }
        break;
    }
  }

  // Past the last op: the rank finishes once every handle has drained.
  if (rs.outstanding_isends == 0 && rs.pending_recvs.empty()) {
    finish_rank(rank, now);
  } else {
    rs.block = Block::WaitAll;  // implicit final drain
  }
}

void ReplayEngine::finish_rank(int rank, SimTime now) {
  RankState& rs = ranks_[rank];
  assert(rs.block != Block::Done);
  rs.block = Block::Done;
  rs.finish = now;
  ++finished_ranks_;
  if (finished_ranks_ == trace_.ranks() && completion_cb_) completion_cb_(now);
}

void ReplayEngine::maybe_unblock_waitall(int rank, SimTime now) {
  RankState& rs = ranks_[rank];
  if (rs.block == Block::WaitAll && rs.outstanding_isends == 0 && rs.pending_recvs.empty())
    advance(rank, now);
}

void ReplayEngine::on_message_injected(MsgId /*id*/, std::uint64_t user_data, SimTime now) {
  assert(kind_of(user_data) == PacketKind::Data);
  const SentMsg& sm = sent_[index_of(user_data)];
  RankState& rs = ranks_[sm.src_rank];
  if (sm.blocking) {
    assert(rs.block == Block::SendInject);
    advance(sm.src_rank, now);
  } else {
    assert(rs.outstanding_isends > 0);
    --rs.outstanding_isends;
    maybe_unblock_waitall(sm.src_rank, now);
  }
}

void ReplayEngine::on_message_delivered(MsgId /*id*/, std::uint64_t user_data, SimTime now) {
  const std::uint64_t idx = index_of(user_data);
  const SentMsg& sm = sent_[idx];
  switch (kind_of(user_data)) {
    case PacketKind::Cts: {
      // The receiver is ready: inject the payload.
      const NodeId src = placement_.node_of_rank(sm.src_rank);
      const NodeId dst = placement_.node_of_rank(sm.dst_rank);
      network_.send(src, dst, sm.bytes, encode(PacketKind::Data, idx),
                    /*notify_injected=*/true, /*notify_delivered=*/true);
      return;
    }
    case PacketKind::Rts: {
      // Reply CTS if the matching receive is already posted; otherwise park
      // the RTS with the unexpected arrivals.
      RankState& rs = ranks_[sm.dst_rank];
      for (const PendingRecv& pr : rs.pending_recvs) {
        if (pr.peer == sm.src_rank && pr.tag == sm.tag) {
          send_cts(idx);
          return;
        }
      }
      rs.unexpected.push_back(ArrivedMsg{sm.src_rank, sm.tag, /*is_rts=*/true, idx});
      return;
    }
    case PacketKind::Data:
      break;
  }

  const int rank = sm.dst_rank;
  RankState& rs = ranks_[rank];
  for (auto it = rs.pending_recvs.begin(); it != rs.pending_recvs.end(); ++it) {
    if (it->peer == sm.src_rank && it->tag == sm.tag) {
      const bool blocking = it->blocking;
      rs.pending_recvs.erase(it);
      if (blocking) {
        assert(rs.block == Block::RecvArrive);
        advance(rank, now);
      } else {
        maybe_unblock_waitall(rank, now);
      }
      return;
    }
  }
  rs.unexpected.push_back(ArrivedMsg{sm.src_rank, sm.tag, /*is_rts=*/false, 0});
  (void)now;
}

void ReplayEngine::handle_event(SimTime now, const EventPayload& payload) {
  switch (payload.kind) {
    case kStart:
      for (int rank = 0; rank < trace_.ranks(); ++rank) advance(rank, now);
      break;
    case kResume:
      advance(static_cast<int>(payload.b), now);
      break;
    case kBarrierRelease: {
      assert(barrier_arrived_ == trace_.ranks());
      barrier_arrived_ = 0;
      barrier_release_scheduled_ = false;
      for (int rank = 0; rank < trace_.ranks(); ++rank) {
        if (ranks_[rank].block == Block::Barrier) advance(rank, now);
      }
      break;
    }
    default:
      assert(false && "unknown replay event");
  }
}

}  // namespace dfly
