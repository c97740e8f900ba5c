#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
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

// The document is the one obs::JsonWriter(os, 1) would write, built in a
// buffer that is flushed every kFlushBytes: each event is a fixed template,
// so the keys are literals and only the values are formatted. Every name
// and category is escape-free.

constexpr std::size_t kFlushBytes = 1 << 16;

void put_field(std::string& out, const char* indent, const char* key, std::int64_t v) {
  out += indent;
  out += key;
  obs::append_int(out, v);
}

void put_field(std::string& out, const char* indent, const char* key, double v) {
  out += indent;
  out += key;
  obs::append_number(out, v);
}

void put_field(std::string& out, const char* indent, const char* key, std::string_view v) {
  out += indent;
  out += key;
  out += '"';
  out += v;
  out += '"';
}

/// Opens array element `i` of traceEvents.
void open_event(std::string& out, std::size_t i) {
  out += i == 0 ? "\n  {" : ",\n  {";
}

}  // namespace

void ChromeTraceWriter::render(std::ostream& os) const {
  constexpr const char* kField = ",\n   ";  // a field of an event
  constexpr const char* kArg = ",\n    ";   // a field of its args
  std::string out = "{\n \"displayTimeUnit\": \"ns\",\n \"traceEvents\": [";
  std::size_t events = 0;

  // Track metadata: one "process" per router, one "thread" per output port,
  // named so Perfetto shows "router 12 / port 3 (local-row)".
  std::map<RouterId, std::map<int, PortKind>> tracks;
  for (const HopEvent& hop : hops_) tracks[hop.router][hop.port] = hop.kind;
  for (const auto& [router, ports] : tracks) {
    open_event(out, events++);
    out += "\n   \"ph\": \"M\",\n   \"name\": \"process_name\"";
    put_field(out, kField, "\"pid\": ", std::int64_t{router});
    out += ",\n   \"args\": {\n    \"name\": \"router ";
    obs::append_int(out, router);
    out += "\"\n   }\n  }";
    for (const auto& [port, kind] : ports) {
      open_event(out, events++);
      out += "\n   \"ph\": \"M\",\n   \"name\": \"thread_name\"";
      put_field(out, kField, "\"pid\": ", std::int64_t{router});
      put_field(out, kField, "\"tid\": ", std::int64_t{port});
      out += ",\n   \"args\": {\n    \"name\": \"port ";
      obs::append_int(out, port);
      out += " (";
      out += to_string(kind);
      out += ")\"\n   }\n  }";
    }
  }

  std::string name;
  for (const HopEvent& hop : hops_) {
    if (out.size() >= kFlushBytes) {
      os.write(out.data(), static_cast<std::streamsize>(out.size()));
      out.clear();
    }
    open_event(out, events++);
    out += "\n   \"ph\": \"X\"";
    name = "m";
    obs::append_int(name, hop.msg);
    name += "/c";
    obs::append_int(name, static_cast<std::int64_t>(hop.chunk));
    put_field(out, kField, "\"name\": ", name);
    put_field(out, kField, "\"cat\": ", to_string(hop.kind));
    put_field(out, kField, "\"pid\": ", std::int64_t{hop.router});
    put_field(out, kField, "\"tid\": ", std::int64_t{hop.port});
    put_field(out, kField, "\"ts\": ", to_us(hop.start_time));
    put_field(out, kField, "\"dur\": ", to_us(hop.end_time - hop.start_time));
    out += ",\n   \"args\": {";
    put_field(out, "\n    ", "\"msg\": ", std::int64_t{hop.msg});
    put_field(out, kArg, "\"chunk\": ", static_cast<std::int64_t>(hop.chunk));
    put_field(out, kArg, "\"src_node\": ", std::int64_t{hop.src});
    put_field(out, kArg, "\"dst_node\": ", std::int64_t{hop.dst});
    put_field(out, kArg, "\"vc\": ", std::int64_t{hop.vc});
    put_field(out, kArg, "\"bytes\": ", hop.bytes);
    put_field(out, kArg, "\"queue_depth_bytes\": ", hop.queue_depth);
    put_field(out, kArg, "\"queue_wait_ns\": ", hop.start_time - hop.enqueue_time);
    out += "\n   }\n  }";
  }

  out += events == 0 ? "]\n}\n" : "\n ]\n}\n";
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

bool ChromeTraceWriter::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  render(f);
  return static_cast<bool>(f);
}

}  // namespace dfly
