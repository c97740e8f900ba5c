#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace dfly {

ChunkPathTracer::ChunkPathTracer(TraceSink& sink, double sample_rate)
    : sink_(sink), rate_(sample_rate) {
  if (!(sample_rate >= 0.0 && sample_rate <= 1.0))
    throw std::invalid_argument("chunk tracer: sample_rate must be in [0, 1]");
}

std::uint32_t ChunkPathTracer::on_chunk_injected(MsgId msg, NodeId src, NodeId dst, Bytes bytes,
                                                 SimTime now) {
  ++seen_;
  if (next_ == kNoTraceSerial) return kNoTraceSerial;  // serials exhausted
  acc_ += rate_;
  if (acc_ < 1.0) return kNoTraceSerial;
  acc_ -= 1.0;
  ++sampled_;
  ++live_;
  const std::uint32_t serial = next_++;
  sink_.on_chunk_sampled(serial, msg, src, dst, bytes, now);
  return serial;
}

void ChunkPathTracer::on_hop_enqueue(std::uint32_t serial, MsgId msg, NodeId src, NodeId dst,
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

void ChunkPathTracer::on_transmit_start(std::uint32_t serial, SimTime start, SimTime end) {
  const auto it = pending_.find(serial);
  if (it == pending_.end()) return;
  HopEvent hop = it->second;
  pending_.erase(it);
  hop.start_time = start;
  hop.end_time = end;
  ++hops_;
  sink_.on_hop(hop);
}

void ChunkPathTracer::on_delivered(std::uint32_t serial, SimTime now) {
  --live_;
  sink_.on_chunk_closed(serial, now);
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
    name.assign(1, 'm');
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
