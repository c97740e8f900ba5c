#include "trace/trace_io.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <type_traits>

namespace dfly {
namespace {

constexpr char kMagic[4] = {'D', 'F', 'T', 'R'};
// Version 2 added the byte-order sentinel after the version field.
constexpr std::uint32_t kVersion = 2;
/// Written after the version; a byte-swapped file reads back 0x04030201.
constexpr std::uint32_t kByteOrderSentinel = 0x01020304u;

// The format is little-endian and written by memcpy of native values; refuse
// to build for a big-endian host rather than silently writing swapped files.
static_assert(std::endian::native == std::endian::little,
              "trace format requires a little-endian host");

/// Plausibility bound for per-rank op counts (the paper's traces top out in
/// the tens of thousands of ops per rank) — combined with the clamped
/// reserve() below it keeps a corrupt 8-byte count field from driving an
/// unbounded allocation before the per-op reads hit EOF.
constexpr std::uint64_t kMaxOpsPerRank = 100'000'000;

template <typename T>
void put(std::ostream& os, T value) {
  // Fixed-width scalars only: the byte image must be the value itself, with
  // no padding or pointers, or the sentinel/static_assert guards above are
  // meaningless.
  static_assert(std::is_trivially_copyable_v<T> && (std::is_integral_v<T> || std::is_enum_v<T>),
                "trace format writes fixed-width integer scalars only");
  // Raw bytes on purpose: the versioned DFTR container carries a byte-order
  // sentinel, like the result markers of core/result_io.
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T get(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T> && (std::is_integral_v<T> || std::is_enum_v<T>),
                "trace format reads fixed-width integer scalars only");
  T value{};
  // Raw bytes on purpose: the versioned DFTR container carries a byte-order
  // sentinel, like the result markers of core/result_io.
  is.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!is) throw std::runtime_error("trace: truncated input");
  return value;
}

}  // namespace

void write_trace(const Trace& trace, std::ostream& os) {
  os.write(kMagic, sizeof kMagic);
  put<std::uint32_t>(os, kVersion);
  put<std::uint32_t>(os, kByteOrderSentinel);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(trace.ranks()));
  for (int r = 0; r < trace.ranks(); ++r) {
    const auto& ops = trace.rank(r);
    put<std::uint64_t>(os, ops.size());
    for (const TraceOp& op : ops) {
      put<std::uint8_t>(os, static_cast<std::uint8_t>(op.kind));
      put<std::int32_t>(os, op.peer);
      put<std::int32_t>(os, op.tag);
      put<std::int64_t>(os, op.bytes);
      put<std::int64_t>(os, op.delay);
    }
  }
  // A full disk or dead pipe must fail here, at save time, not surface as a
  // truncated trace at the next load.
  os.flush();
  if (!os) throw std::runtime_error("trace: write failed (disk full?)");
}

Trace read_trace(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw std::runtime_error("trace: bad magic");
  const auto version = get<std::uint32_t>(is);
  if (version != kVersion) throw std::runtime_error("trace: unsupported version");
  const auto sentinel = get<std::uint32_t>(is);
  if (sentinel != kByteOrderSentinel)
    throw std::runtime_error("trace: byte-order mismatch (not little-endian?)");
  const auto ranks = get<std::uint32_t>(is);
  if (ranks == 0 || ranks > 10'000'000) throw std::runtime_error("trace: implausible rank count");
  Trace trace(static_cast<int>(ranks));
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const auto count = get<std::uint64_t>(is);
    // `count` is untrusted input: bound it, and reserve incrementally so even
    // an in-bounds lie allocates no more than one chunk past the real data.
    if (count > kMaxOpsPerRank) throw std::runtime_error("trace: implausible op count");
    auto& ops = trace.rank(static_cast<int>(r));
    ops.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(count, 1u << 20)));
    for (std::uint64_t i = 0; i < count; ++i) {
      TraceOp op;
      const auto kind = get<std::uint8_t>(is);
      if (kind > static_cast<std::uint8_t>(OpKind::Delay))
        throw std::runtime_error("trace: bad op kind");
      op.kind = static_cast<OpKind>(kind);
      op.peer = get<std::int32_t>(is);
      op.tag = get<std::int32_t>(is);
      op.bytes = get<std::int64_t>(is);
      op.delay = get<std::int64_t>(is);
      if (op.bytes < 0) throw std::runtime_error("trace: negative message size");
      if (op.delay < 0) throw std::runtime_error("trace: negative delay");
      ops.push_back(op);
    }
  }
  return trace;
}

void save_trace(const Trace& trace, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("trace: cannot open for writing: " + path);
  write_trace(trace, f);
  if (!f) throw std::runtime_error("trace: write failed: " + path);
}

Trace load_trace(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("trace: cannot open: " + path);
  return read_trace(f);
}

void dump_trace_text(const Trace& trace, std::ostream& os, std::size_t max_ops_per_rank) {
  os << "trace: " << trace.ranks() << " ranks, " << trace.total_ops() << " ops, "
     << trace.total_send_bytes() << " send bytes\n";
  for (int r = 0; r < trace.ranks(); ++r) {
    const auto& ops = trace.rank(r);
    os << "rank " << r << " (" << ops.size() << " ops):\n";
    std::size_t shown = 0;
    for (const TraceOp& op : ops) {
      if (max_ops_per_rank && shown++ >= max_ops_per_rank) {
        os << "  ...\n";
        break;
      }
      os << "  " << to_string(op.kind);
      if (op.peer >= 0) os << " peer=" << op.peer;
      if (op.bytes > 0) os << " bytes=" << op.bytes;
      if (op.tag != 0) os << " tag=" << op.tag;
      if (op.delay > 0) os << " delay=" << op.delay;
      os << '\n';
    }
  }
}

}  // namespace dfly
