#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

namespace dfly {

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::Send: return "send";
    case OpKind::Isend: return "isend";
    case OpKind::Recv: return "recv";
    case OpKind::Irecv: return "irecv";
    case OpKind::WaitAll: return "waitall";
    case OpKind::Barrier: return "barrier";
    case OpKind::Delay: return "delay";
  }
  return "?";
}

namespace {

bool is_send(OpKind k) { return k == OpKind::Send || k == OpKind::Isend; }
bool is_recv(OpKind k) { return k == OpKind::Recv || k == OpKind::Irecv; }

}  // namespace

Bytes Trace::total_send_bytes() const {
  Bytes total = 0;
  for (const auto& rank_ops : ops_)
    for (const TraceOp& op : rank_ops)
      if (is_send(op.kind)) total += op.bytes;
  return total;
}

std::size_t Trace::total_ops() const {
  std::size_t total = 0;
  for (const auto& rank_ops : ops_) total += rank_ops.size();
  return total;
}

void Trace::scale_message_sizes(double factor) {
  if (!(std::isfinite(factor) && factor > 0))
    throw std::invalid_argument("scale factor must be finite and positive");
  for (auto& rank_ops : ops_) {
    for (TraceOp& op : rank_ops) {
      if (is_send(op.kind) || is_recv(op.kind)) {
        const double scaled = std::round(static_cast<double>(op.bytes) * factor);
        op.bytes = std::max<Bytes>(1, static_cast<Bytes>(scaled));
      }
    }
  }
}

void Trace::validate() const {
  const int n = ranks();
  // Multiset of (src, dst, tag, bytes) for sends minus recvs must cancel.
  std::map<std::tuple<int, int, int, Bytes>, std::int64_t> balance;
  for (int r = 0; r < n; ++r) {
    for (const TraceOp& op : ops_[r]) {
      if (is_send(op.kind) || is_recv(op.kind)) {
        if (op.peer < 0 || op.peer >= n)
          throw std::runtime_error("trace: peer out of range on rank " + std::to_string(r));
        if (op.peer == r) throw std::runtime_error("trace: self-message on rank " + std::to_string(r));
        if (op.bytes <= 0) throw std::runtime_error("trace: non-positive message size");
      }
      if (is_send(op.kind)) balance[{r, op.peer, op.tag, op.bytes}] += 1;
      if (is_recv(op.kind)) balance[{op.peer, r, op.tag, op.bytes}] -= 1;
    }
  }
  for (const auto& [key, count] : balance) {
    if (count != 0)
      throw std::runtime_error("trace: unmatched send/recv between ranks " +
                               std::to_string(std::get<0>(key)) + " and " +
                               std::to_string(std::get<1>(key)));
  }
}

}  // namespace dfly
