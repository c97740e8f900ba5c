#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "ckpt/snapshot_io.hpp"
#include "obs/json.hpp"

namespace dfly {

ChunkPathTracer::ChunkPathTracer(TraceSink& sink, double sample_rate)
    : sink_(sink), rate_(sample_rate) {
  if (!(sample_rate >= 0.0 && sample_rate <= 1.0))
    throw std::invalid_argument("chunk tracer: sample_rate must be in [0, 1]");
}

std::uint64_t ChunkPathTracer::on_chunk_injected(MsgId msg, NodeId src, NodeId dst, Bytes bytes,
                                                 SimTime now) {
  ++seen_;
  acc_ += rate_;
  if (acc_ < 1.0) return kNoTraceSerial;
  acc_ -= 1.0;
  ++sampled_;
  ++live_;
  const std::uint64_t serial = next_++;
  sink_.on_chunk_sampled(serial, msg, src, dst, bytes, now);
  return serial;
}

void ChunkPathTracer::on_hop_enqueue(std::uint64_t serial, MsgId msg, NodeId src, NodeId dst,
                                     Bytes bytes, RouterId router, int port, PortKind kind,
                                     int vc, Bytes queue_depth, SimTime now) {
  HopEvent hop;
  hop.chunk = serial;
  hop.msg = msg;
  hop.src = src;
  hop.dst = dst;
  hop.router = router;
  hop.port = static_cast<std::int16_t>(port);
  hop.vc = static_cast<std::int8_t>(vc);
  hop.kind = kind;
  hop.bytes = bytes;
  hop.queue_depth = queue_depth;
  hop.enqueue_time = now;
  pending_[serial] = hop;
}

void ChunkPathTracer::on_transmit_start(std::uint64_t serial, SimTime start, SimTime end) {
  const auto it = pending_.find(serial);
  if (it == pending_.end()) return;
  HopEvent hop = it->second;
  pending_.erase(it);
  hop.start_time = start;
  hop.end_time = end;
  ++hops_;
  sink_.on_hop(hop);
}

void ChunkPathTracer::on_delivered(std::uint64_t serial, SimTime now) {
  --live_;
  sink_.on_chunk_closed(serial, now);
}

namespace {

void save_hop(ckpt::Writer& w, const HopEvent& hop) {
  w.u64(hop.chunk);
  w.u32(hop.msg);
  w.i32(hop.src);
  w.i32(hop.dst);
  w.i32(hop.router);
  w.i32(hop.port);
  w.i32(hop.vc);
  w.u8(static_cast<std::uint8_t>(hop.kind));
  w.i64(hop.bytes);
  w.i64(hop.queue_depth);
  w.i64(hop.enqueue_time);
  w.i64(hop.start_time);
  w.i64(hop.end_time);
}

/// Serialized size of one HopEvent, for Reader::count plausibility caps.
constexpr std::size_t kHopBytes = 8 + 4 + 4 * 5 + 1 + 8 * 5;
// Pin the frame arithmetic to the field layout save_hop/load_hop actually
// write: u64 chunk + u32 msg + i32 x {src,dst,router,port,vc} + u8 kind +
// i64 x {bytes,queue_depth,enqueue,start,end}. If a field is added the sum
// breaks here instead of as a corrupt-looking snapshot at resume time.
static_assert(std::is_trivially_copyable_v<HopEvent>,
              "HopEvent is snapshot-framed and must stay trivially copyable");
static_assert(kHopBytes == sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                               5 * sizeof(std::int32_t) + sizeof(std::uint8_t) +
                               5 * sizeof(std::int64_t),
              "kHopBytes must match the save_hop field framing");

HopEvent load_hop(ckpt::Reader& r) {
  HopEvent hop;
  hop.chunk = r.u64();
  hop.msg = r.u32();
  hop.src = r.i32();
  hop.dst = r.i32();
  hop.router = r.i32();
  hop.port = static_cast<std::int16_t>(r.i32());
  hop.vc = static_cast<std::int8_t>(r.i32());
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(PortKind::Global))
    throw std::runtime_error("snapshot: invalid port kind in hop record");
  hop.kind = static_cast<PortKind>(kind);
  hop.bytes = r.i64();
  hop.queue_depth = r.i64();
  hop.enqueue_time = r.i64();
  hop.start_time = r.i64();
  hop.end_time = r.i64();
  return hop;
}

}  // namespace

void ChunkPathTracer::save_state(ckpt::Writer& w) const {
  // Format v2 frames the tracer as a list of lanes, each ending in a list of
  // buffered hops; the serial tracer is always one lane with none buffered.
  w.u32(1);
  w.f64(acc_);
  w.u64(next_);
  w.u64(seen_);
  w.u64(sampled_);
  w.u64(hops_);
  w.i64(live_);
  // Sort by serial so the snapshot bytes don't depend on hash-map order: the
  // hash-map loop only collects keys, sorted before any byte is written.
  std::vector<std::uint64_t> serials;
  serials.reserve(pending_.size());
  for (const auto& [serial, hop] : pending_) serials.push_back(serial);
  std::sort(serials.begin(), serials.end());
  w.size(serials.size());
  for (const std::uint64_t serial : serials) save_hop(w, pending_.at(serial));
  w.size(0);
}

void ChunkPathTracer::load_state(ckpt::Reader& r) {
  if (r.u32() != 1)
    throw std::runtime_error(
        "snapshot: tracer lane count is not 1; sharded snapshots are no longer supported");
  acc_ = r.f64();
  next_ = r.u64();
  seen_ = r.u64();
  sampled_ = r.u64();
  hops_ = r.u64();
  live_ = r.i64();
  if (!(acc_ >= 0.0 && acc_ < 1.0))
    throw std::runtime_error("snapshot: tracer sampling accumulator out of range");
  const std::size_t npending = r.count(kHopBytes);
  pending_.clear();
  pending_.reserve(npending);
  for (std::size_t i = 0; i < npending; ++i) {
    HopEvent hop = load_hop(r);
    if (!pending_.emplace(hop.chunk, hop).second)
      throw std::runtime_error("snapshot: duplicate pending hop serial");
  }
  if (r.count(kHopBytes) != 0)
    throw std::runtime_error(
        "snapshot: tracer holds buffered hops; sharded snapshots are no longer supported");
}

void ChromeTraceWriter::save_state(ckpt::Writer& w) const {
  w.size(hops_.size());
  for (const HopEvent& hop : hops_) save_hop(w, hop);
}

void ChromeTraceWriter::load_state(ckpt::Reader& r) {
  const std::size_t n = r.count(kHopBytes);
  hops_.clear();
  hops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) hops_.push_back(load_hop(r));
}

namespace {

double to_us(SimTime t) { return static_cast<double>(t) / 1000.0; }

}  // namespace

void ChromeTraceWriter::render(std::ostream& os) const {
  obs::JsonWriter w(os, 1);
  w.begin_object();
  w.field("displayTimeUnit", "ns");
  w.key("traceEvents");
  w.begin_array();

  // Track metadata: one "process" per router, one "thread" per output port,
  // named so Perfetto shows "router 12 / port 3 (local-row)".
  std::map<RouterId, std::map<int, PortKind>> tracks;
  for (const HopEvent& hop : hops_) tracks[hop.router][hop.port] = hop.kind;
  for (const auto& [router, ports] : tracks) {
    w.begin_object();
    w.field("ph", "M").field("name", "process_name").field("pid", std::int64_t{router});
    w.key("args").begin_object();
    w.field("name", "router " + std::to_string(router));
    w.end_object();
    w.end_object();
    for (const auto& [port, kind] : ports) {
      w.begin_object();
      w.field("ph", "M").field("name", "thread_name").field("pid", std::int64_t{router});
      w.field("tid", std::int64_t{port});
      w.key("args").begin_object();
      w.field("name", "port " + std::to_string(port) + " (" + to_string(kind) + ")");
      w.end_object();
      w.end_object();
    }
  }

  for (const HopEvent& hop : hops_) {
    w.begin_object();
    w.field("ph", "X");
    w.field("name", "m" + std::to_string(hop.msg) + "/c" + std::to_string(hop.chunk));
    w.field("cat", to_string(hop.kind));
    w.field("pid", std::int64_t{hop.router});
    w.field("tid", std::int64_t{hop.port});
    w.field("ts", to_us(hop.start_time));
    w.field("dur", to_us(hop.end_time - hop.start_time));
    w.key("args").begin_object();
    w.field("msg", std::int64_t{hop.msg});
    w.field("chunk", static_cast<std::int64_t>(hop.chunk));
    w.field("src_node", std::int64_t{hop.src});
    w.field("dst_node", std::int64_t{hop.dst});
    w.field("vc", std::int64_t{hop.vc});
    w.field("bytes", hop.bytes);
    w.field("queue_depth_bytes", hop.queue_depth);
    w.field("queue_wait_ns", hop.start_time - hop.enqueue_time);
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  os << '\n';
}

bool ChromeTraceWriter::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  render(f);
  return static_cast<bool>(f);
}

}  // namespace dfly
