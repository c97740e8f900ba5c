#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "ckpt/snapshot_io.hpp"
#include "obs/trace.hpp"
#include "prof/profiler.hpp"

namespace dfly {

const char* to_string(Arbitration policy) {
  switch (policy) {
    case Arbitration::FirstSendable: return "first-sendable";
    case Arbitration::RoundRobinVc: return "round-robin-vc";
  }
  return "?";
}

void NetworkParams::validate() const {
  if (chunk_bytes <= 0) throw std::invalid_argument("chunk_bytes must be positive");
  if (terminal_vc_buffer < chunk_bytes || local_vc_buffer < chunk_bytes ||
      global_vc_buffer < chunk_bytes)
    throw std::invalid_argument("every VC buffer must hold at least one chunk");
  if (std::max({chunk_bytes, terminal_vc_buffer, local_vc_buffer, global_vc_buffer}) >
      std::numeric_limits<std::int32_t>::max())
    throw std::invalid_argument("chunk sizes and VC credits are 32-bit: at most 2^31-1 bytes");
  if (terminal_bandwidth_gib <= 0 || local_bandwidth_gib <= 0 || global_bandwidth_gib <= 0)
    throw std::invalid_argument("bandwidths must be positive");
}

Network::Network(Engine& engine, const DragonflyTopology& topo, const NetworkParams& params,
                 const RoutingAlgorithm& routing, Rng rng, MessageSink* sink)
    : engine_(engine), topo_(topo), params_(params), routing_(routing), rng_(rng), sink_(sink) {
  params_.validate();
  for (int p = 0; p < topo_.ports_per_router(); ++p) port_kind_.push_back(topo_.port_kind(p));
  ports_.resize(topo_.total_channels());
  for (std::size_t c = 0; c < ports_.size(); ++c) {
    OutPort& op = ports_[c];
    op.kind = port_kind_[c % port_kind_.size()];
    if (!op.is_terminal()) op.credits.fill(static_cast<std::int32_t>(params_.vc_buffer(op.kind)));
  }
  nics_.resize(topo_.params().total_nodes());
  for (Nic& nic : nics_) nic.credits = params_.terminal_vc_buffer;
  hop_stats_.resize(nics_.size());
}

MsgId Network::send(NodeId src, NodeId dst, Bytes bytes, std::uint64_t user_data,
                    bool notify_injected, bool notify_delivered) {
  assert(src != dst && "self-sends must be short-circuited by the caller");
  assert(bytes > 0);
  const MsgId id = msgs_.allocate();
  MessageRecord& m = msgs_[id];
  m.src = src;
  m.dst = dst;
  m.total = bytes;
  m.user_data = user_data;
  m.notify_injected = notify_injected;
  m.notify_delivered = notify_delivered;
  m.active = true;
  nics_[src].queue.push_back(PendingMsg{id, bytes});
  // Kick the NIC via a zero-delay event so send() may be called both from
  // outside the engine and from within event handlers.
  engine_.schedule_after(0, this, EventPayload{kNicFree, 0, static_cast<std::uint64_t>(src), 0});
  return id;
}

Bytes Network::queued_bytes(RouterId router, int port) const {
  return ports_[topo_.channel_id(router, port)].queued_bytes;
}

void Network::try_inject(NodeId node, SimTime now) {
  Nic& nic = nics_[node];
  if (nic.queue.empty()) {
    nic.end_blocked(now);
    return;
  }
  PendingMsg& head = nic.queue.front();
  MessageRecord& m = msgs_[head.msg];
  const Bytes size = std::min<Bytes>(params_.chunk_bytes, head.bytes_left);
  // Injection-channel saturation mirrors the router-channel definition:
  // demand present but the router's terminal buffer is exhausted.
  if (nic.credits < size) {
    nic.begin_blocked(now);
    return;  // woken by kCreditToNic
  }
  nic.end_blocked(now);
  if (now < nic.busy_until) return;
  nic.credits -= size;
  totals_.bytes_injected += size;
  totals_.in_fabric += size;

  const ChunkId cid = chunks_.allocate();
  Chunk& chunk = chunks_[cid];
  chunk.msg = head.msg;
  chunk.bytes = static_cast<std::int32_t>(size);
  chunk.hop_idx = 0;
  {
    // Timed only inside a sampled dispatch (sampling() is null otherwise);
    // the profiler takes this time out of the network layer's share of the
    // dispatch and charges it to routing alone.
    prof::LayerScope prof_scope(engine_.sampling(), prof::Layer::Routing);
    chunk.route = routing_.compute(m.src, m.dst, *this, rng_);
  }
  assert(chunk.route.size() > 0);

  HopStats& hs = hop_stats_[node];
  ++hs.chunks;
  hs.routers_sum += static_cast<std::uint64_t>(chunk.route.routers_traversed());
  if (tracer_) chunk.trace_serial = tracer_->on_chunk_injected(head.msg, m.src, m.dst, size, now);

  const SimTime t_end = now + units::transfer_time(size, params_.bandwidth(PortKind::Terminal));
  nic.busy_until = t_end;
  nic.traffic += size;
  engine_.schedule(t_end + params_.terminal_latency + params_.router_delay, this,
                   EventPayload{kChunkArrive, cid,
                                static_cast<std::uint64_t>(chunk.route.first().router), 0});
  engine_.schedule(t_end, this, EventPayload{kNicFree, 0, static_cast<std::uint64_t>(node), 0});

  head.bytes_left -= size;
  m.injected += size;
  if (head.bytes_left == 0) {
    const MsgId mid = head.msg;
    nic.queue.pop_front();  // invalidates `head`
    if (m.notify_injected) {
      engine_.schedule(t_end, this, EventPayload{kMsgInjected, 0, mid, 0});
    }
  }
}

void Network::try_send(int channel, SimTime now) {
  OutPort& op = ports_[channel];
  if (op.queue.empty()) {
    op.end_blocked(now);
    return;
  }

  // Pick a sendable chunk (one whose VC has downstream space; terminal
  // ports always have space). FirstSendable takes the oldest such chunk;
  // RoundRobinVc rotates service across VCs for fairness under contention.
  // Each entry is checked against its own VC's credits, not only the VC
  // head's: a partial chunk may bypass a blocked full-size one on its VC.
  const std::size_t npos = op.queue.size();
  std::size_t pick = npos;
  if (params_.arbitration == Arbitration::FirstSendable || op.is_terminal()) {
    for (std::size_t i = 0; i < npos; ++i) {
      const QueuedChunk& e = op.queue[i];
      if (op.is_terminal() || op.credits[e.vc] >= e.bytes) {
        pick = i;
        break;
      }
    }
  } else {
    int best_key = kMaxRouteHops + 1;
    for (std::size_t i = 0; i < npos; ++i) {
      const QueuedChunk& e = op.queue[i];
      if (op.credits[e.vc] < e.bytes) continue;
      const int key = (e.vc - op.last_vc_served + kMaxRouteHops - 1) % kMaxRouteHops;
      if (key < best_key) {
        best_key = key;
        pick = i;
      }
    }
  }
  // Saturation ("the link has used up all its buffers", §III-E): demand is
  // present but every queued chunk is blocked on downstream buffer space —
  // whether or not the wire is currently busy.
  if (pick == npos) {
    op.begin_blocked(now);
    return;
  }
  op.end_blocked(now);
  if (now < op.busy_until) return;

  const ChunkId cid = op.queue[pick].id;
  op.queue.erase(op.queue.begin() + static_cast<std::ptrdiff_t>(pick));
  Chunk& chunk = chunks_[cid];
  const Hop hop = chunk.route[chunk.hop_idx];
  assert(topo_.channel_id(hop.router, hop.port) == channel);
  op.queued_bytes -= chunk.bytes;
  op.last_vc_served = hop.vc;
  if (!op.is_terminal()) op.credits[hop.vc] -= chunk.bytes;

  const SimTime t_end = now + units::transfer_time(chunk.bytes, params_.bandwidth(op.kind));
  op.busy_until = t_end;
  op.traffic += chunk.bytes;
  ++totals_.chunks_forwarded;
  if (tracer_ && chunk.trace_serial != kNoTraceSerial)
    tracer_->on_transmit_start(chunk.trace_serial, now, t_end);
  engine_.schedule(t_end, this, EventPayload{kPortFree, 0, static_cast<std::uint64_t>(channel), 0});

  // Return the input-buffer space this chunk occupied here to its upstream
  // sender, one upstream-link latency after the last byte departs.
  if (chunk.hop_idx == 0) {
    const NodeId src = msgs_[chunk.msg].src;
    engine_.schedule(t_end + params_.terminal_latency, this,
                     EventPayload{kCreditToNic, 0, static_cast<std::uint64_t>(src),
                                  static_cast<std::uint64_t>(chunk.bytes)});
  } else {
    const Hop& up = chunk.route[chunk.hop_idx - 1];
    engine_.schedule(t_end + params_.latency(port_kind_[up.port]), this,
                     EventPayload{kCreditToRouter, static_cast<std::uint32_t>(up.vc),
                                  static_cast<std::uint64_t>(topo_.channel_id(up.router, up.port)),
                                  static_cast<std::uint64_t>(chunk.bytes)});
  }

  if (op.is_terminal()) {
    engine_.schedule(t_end + params_.terminal_latency, this, EventPayload{kDeliver, cid, 0, 0});
  } else {
    ++chunk.hop_idx;
    assert(chunk.hop_idx < chunk.route.size());
    engine_.schedule(t_end + params_.latency(op.kind) + params_.router_delay, this,
                     EventPayload{kChunkArrive, cid,
                                  static_cast<std::uint64_t>(chunk.route[chunk.hop_idx].router), 0});
  }
}

void Network::release_if_done(MsgId id) {
  MessageRecord& m = msgs_[id];
  if (m.active && m.injected == m.total && m.delivered == m.total) msgs_.release(id);
}

void Network::handle_event(SimTime now, const EventPayload& payload) {
  switch (payload.kind) {
    case kChunkArrive: {
      const ChunkId cid = payload.a;
      const Chunk& chunk = chunks_[cid];
      const auto rid = static_cast<RouterId>(payload.b);
      const Hop& hop = chunk.route[chunk.hop_idx];
      assert(hop.router == rid);
      const int channel = topo_.channel_id(rid, hop.port);
      OutPort& op = ports_[channel];
      if (tracer_ && chunk.trace_serial != kNoTraceSerial) {
        const MessageRecord& m = msgs_[chunk.msg];
        tracer_->on_hop_enqueue(chunk.trace_serial, chunk.msg, m.src, m.dst, chunk.bytes, rid,
                                hop.port, op.kind, hop.vc, op.queued_bytes, now);
      }
      op.queue.push_back(QueuedChunk{cid, chunk.bytes, hop.vc});
      op.queued_bytes += chunk.bytes;
      try_send(channel, now);
      break;
    }
    case kPortFree:
      try_send(static_cast<int>(payload.b), now);
      break;
    case kCreditToRouter: {
      const auto channel = static_cast<int>(payload.b);
      ports_[channel].credits[payload.a] += static_cast<std::int32_t>(payload.c);
      try_send(channel, now);
      break;
    }
    case kCreditToNic: {
      const auto node = static_cast<NodeId>(payload.b);
      nics_[node].credits += static_cast<Bytes>(payload.c);
      try_inject(node, now);
      break;
    }
    case kNicFree:
      try_inject(static_cast<NodeId>(payload.b), now);
      break;
    case kDeliver: {
      const ChunkId cid = payload.a;
      const Chunk& chunk = chunks_[cid];
      const MsgId mid = chunk.msg;
      MessageRecord& m = msgs_[mid];
      m.delivered += chunk.bytes;
      totals_.bytes_delivered += chunk.bytes;
      totals_.in_fabric -= chunk.bytes;
      if (tracer_ && chunk.trace_serial != kNoTraceSerial)
        tracer_->on_delivered(chunk.trace_serial, now);
      const bool done = m.delivered == m.total;
      chunks_.release(cid);
      if (done) {
        if (m.notify_delivered && sink_) {
          prof::LayerScope prof_scope(engine_.sampling(), prof::Layer::Replay);
          sink_->on_message_delivered(mid, m.user_data, now);
        }
        release_if_done(mid);
      }
      break;
    }
    case kMsgInjected: {
      const auto mid = static_cast<MsgId>(payload.b);
      MessageRecord& m = msgs_[mid];
      if (sink_) {
        prof::LayerScope prof_scope(engine_.sampling(), prof::Layer::Replay);
        sink_->on_message_injected(mid, m.user_data, now);
      }
      release_if_done(mid);
      break;
    }
    default:
      assert(false && "unknown event kind");
  }
}

namespace {

[[noreturn]] void bad_state(const char* what) {
  throw std::runtime_error(std::string("snapshot: network state invalid: ") + what);
}

void save_route(ckpt::Writer& w, const Route& route) {
  w.u8(static_cast<std::uint8_t>(route.size()));
  for (int i = 0; i < route.size(); ++i) {
    const Hop& hop = route[i];
    w.i32(hop.router);
    w.i32(hop.port);
    w.i32(hop.vc);
  }
}

Route load_route(ckpt::Reader& r) {
  const std::uint8_t len = r.u8();
  if (len > kMaxRouteHops) bad_state("route too long");
  Route route;
  for (int i = 0; i < len; ++i) {
    const RouterId router = r.i32();
    const int port = r.i32();
    const int vc = r.i32();
    if (vc != i) bad_state("route VC out of sequence");
    route.push(router, port);
  }
  return route;
}

}  // namespace

void Network::save_state(ckpt::Writer& w) const {
  // The chunk pool (before routers/NICs so their queues can be validated
  // against it at load time), framed as the format-v2 list of arenas: always
  // exactly one.
  w.u32(1);
  const auto size = static_cast<std::uint32_t>(chunks_.capacity());
  w.u32(size);
  for (ChunkId cid = 0; cid < size; ++cid) {
    const Chunk& chunk = chunks_[cid];
    w.u32(chunk.msg);
    w.i32(chunk.bytes);
    w.u8(static_cast<std::uint8_t>(chunk.hop_idx));
    w.u64(chunk.trace_serial);
    save_route(w, chunk.route);
  }
  w.size(chunks_.free_list().size());
  for (const ChunkId id : chunks_.free_list()) w.u32(id);

  w.size(msgs_.slots().size());
  for (const MessageRecord& m : msgs_.slots()) {
    w.i32(m.src);
    w.i32(m.dst);
    w.i64(m.total);
    w.i64(m.injected);
    w.i64(m.delivered);
    w.u64(m.user_data);
    w.boolean(m.notify_injected);
    w.boolean(m.notify_delivered);
    w.boolean(m.active);
  }
  w.size(msgs_.free_slots().size());
  for (const MsgId id : msgs_.free_slots()) w.u32(id);

  // Framed per router, with no credits on terminal ports (format v4).
  const auto ppr = static_cast<std::size_t>(topo_.ports_per_router());
  w.size(ports_.size() / ppr);
  for (std::size_t c = 0; c < ports_.size(); ++c) {
    if (c % ppr == 0) w.i32(static_cast<std::int32_t>(ppr));
    const OutPort& op = ports_[c];
    w.i64(op.busy_until);
    w.size(op.queue.size());
    for (const QueuedChunk& e : op.queue) w.u32(e.id);
    w.i64(op.queued_bytes);
    const std::size_t ncredits = op.is_terminal() ? 0 : op.credits.size();
    w.size(ncredits);
    for (std::size_t vc = 0; vc < ncredits; ++vc) w.i64(op.credits[vc]);
    w.i32(op.last_vc_served);
    w.i64(op.traffic);
    w.i64(op.blocked_since);
    w.i64(op.saturated_time);
  }

  w.size(nics_.size());
  for (const Nic& nic : nics_) {
    w.i64(nic.busy_until);
    w.size(nic.queue.size());
    for (const PendingMsg& pm : nic.queue) {
      w.u32(pm.msg);
      w.i64(pm.bytes_left);
    }
    w.i64(nic.credits);
    w.i64(nic.traffic);
    w.i64(nic.blocked_since);
    w.i64(nic.saturated_time);
  }

  w.size(hop_stats_.size());
  for (const HopStats& hs : hop_stats_) {
    w.u64(hs.chunks);
    w.u64(hs.routers_sum);
  }

  w.u32(1);  // counter blocks: format v2 frames a list, always exactly one
  w.u64(totals_.chunks_forwarded);
  w.i64(totals_.bytes_delivered);
  w.i64(totals_.bytes_injected);
  w.i64(totals_.in_fabric);
  for (const std::uint64_t word : rng_.state()) w.u64(word);
}

void Network::load_state(ckpt::Reader& r) {
  if (r.u32() != 1)
    bad_state("chunk arena count is not 1; sharded snapshots are no longer supported");
  const std::uint32_t size = r.u32();
  if (size > ChunkPool::kMaxChunks) bad_state("chunk pool size out of range");
  chunks_.restore(size);
  for (ChunkId cid = 0; cid < size; ++cid) {
    Chunk& chunk = chunks_[cid];
    chunk.msg = r.u32();
    chunk.bytes = r.i32();
    chunk.hop_idx = static_cast<std::int8_t>(r.u8());
    chunk.trace_serial = r.u64();
    chunk.route = load_route(r);
    if (chunk.hop_idx < 0 || chunk.hop_idx > chunk.route.size())
      bad_state("chunk hop index past route end");
  }
  const std::size_t nfree = r.count(4);
  if (nfree > size) bad_state("chunk free list larger than pool");
  std::vector<ChunkId> free_list;
  free_list.reserve(nfree);
  for (std::size_t i = 0; i < nfree; ++i) {
    const ChunkId id = r.u32();
    if (id >= size) bad_state("chunk free-list id out of range");
    free_list.push_back(id);
  }
  chunks_.set_free_list(std::move(free_list));

  const std::size_t msg_cap = r.count(16);
  std::vector<MessageRecord> msg_slots;
  msg_slots.reserve(msg_cap);
  for (std::size_t i = 0; i < msg_cap; ++i) {
    MessageRecord m;
    m.src = r.i32();
    m.dst = r.i32();
    m.total = r.i64();
    m.injected = r.i64();
    m.delivered = r.i64();
    m.user_data = r.u64();
    m.notify_injected = r.boolean();
    m.notify_delivered = r.boolean();
    m.active = r.boolean();
    msg_slots.push_back(m);
  }
  const std::size_t msg_free = r.count(4);
  if (msg_free > msg_cap) bad_state("message free list larger than pool");
  std::vector<MsgId> msg_free_list;
  msg_free_list.reserve(msg_free);
  for (std::size_t i = 0; i < msg_free; ++i) {
    const MsgId id = r.u32();
    if (id >= msg_cap) bad_state("message free-list id out of range");
    msg_free_list.push_back(id);
  }
  msgs_.restore(std::move(msg_slots), std::move(msg_free_list));

  const int ppr = topo_.ports_per_router();
  const std::size_t nrouters = r.count(8);
  if (nrouters * static_cast<std::size_t>(ppr) != ports_.size()) bad_state("router count mismatch");
  // Queue entries are rebuilt from the chunks, so each queued chunk must sit
  // at a hop of its route that leaves through this very port, and only once.
  std::vector<bool> queued(size, false);
  for (RouterId rid = 0; rid < static_cast<RouterId>(nrouters); ++rid) {
    if (r.i32() != ppr) bad_state("port count mismatch");
    for (int p = 0; p < ppr; ++p) {
      OutPort& op = ports_[topo_.channel_id(rid, p)];
      op.busy_until = r.i64();
      const std::size_t qn = r.count(4);
      op.queue.clear();
      op.queue.reserve(qn);
      for (std::size_t i = 0; i < qn; ++i) {
        const ChunkId id = r.u32();
        if (!chunks_.valid(id)) bad_state("queued chunk id out of range");
        if (queued[id]) bad_state("chunk queued twice");
        queued[id] = true;
        const Chunk& chunk = chunks_[id];
        if (chunk.hop_idx >= chunk.route.size()) bad_state("queued chunk has no current hop");
        const Hop& hop = chunk.route[chunk.hop_idx];
        if (hop.router != rid || hop.port != p)
          bad_state("queued chunk's current hop is another port");
        op.queue.push_back(QueuedChunk{id, chunk.bytes, hop.vc});
      }
      op.queued_bytes = r.i64();
      const std::size_t ncredits = r.count(8);
      if (ncredits != (op.is_terminal() ? 0 : op.credits.size()))
        bad_state("VC credit vector size mismatch");
      for (std::size_t vc = 0; vc < ncredits; ++vc) {
        const Bytes c = r.i64();
        if (c < 0 || c > params_.vc_buffer(op.kind)) bad_state("VC credit out of range");
        op.credits[vc] = static_cast<std::int32_t>(c);
      }
      op.last_vc_served = static_cast<std::int8_t>(r.i32());
      op.traffic = r.i64();
      op.blocked_since = r.i64();
      op.saturated_time = r.i64();
    }
  }

  const std::size_t nnics = r.count(16);
  if (nnics != nics_.size()) bad_state("NIC count mismatch");
  for (Nic& nic : nics_) {
    nic.busy_until = r.i64();
    const std::size_t qn = r.count(12);
    nic.queue.clear();
    for (std::size_t i = 0; i < qn; ++i) {
      PendingMsg pm;
      pm.msg = r.u32();
      if (pm.msg >= msgs_.slots().size()) bad_state("pending message id out of range");
      pm.bytes_left = r.i64();
      nic.queue.push_back(pm);
    }
    nic.credits = r.i64();
    nic.traffic = r.i64();
    nic.blocked_since = r.i64();
    nic.saturated_time = r.i64();
  }

  const std::size_t nhops = r.count(16);
  if (nhops != hop_stats_.size()) bad_state("hop-stats size mismatch");
  for (HopStats& hs : hop_stats_) {
    hs.chunks = r.u64();
    hs.routers_sum = r.u64();
  }

  if (r.u32() != 1)
    bad_state("counter block count is not 1; sharded snapshots are no longer supported");
  totals_.chunks_forwarded = r.u64();
  totals_.bytes_delivered = r.i64();
  totals_.bytes_injected = r.i64();
  totals_.in_fabric = r.i64();
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = r.u64();
  rng_.set_state(rng_state);
  if (!conservation_ok()) bad_state("conservation audit failed after restore");
}

void Network::finalize(SimTime end) {
  for (OutPort& op : ports_) op.end_blocked(end);
  for (Nic& nic : nics_) nic.end_blocked(end);
}

}  // namespace dfly
