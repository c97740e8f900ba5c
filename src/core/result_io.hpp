// Result markers: the on-disk form of one finished experiment, written by
// run_matrix so an interrupted sweep resumes config by config (DESIGN.md §9).
//
// A marker file is:
//   magic "DFCK" | u32 version | u32 byte-order sentinel | u8 kind |
//   u64 payload size | payload bytes | u32 CRC-32 of the payload
//
// Writer accumulates the payload in memory; write_marker_file() frames it
// and writes atomically AND durably: tmp file, write, fsync(file), rename,
// fsync(parent directory) — a full disk fails loudly at save time, never as
// a silently truncated marker discovered at resume time, and a marker that
// save_result returned from survives power loss.
//
// Reader parses a validated payload with bounds-checked reads: every count is
// capped by the bytes actually remaining in the buffer, so a corrupt or
// hostile marker can throw but never drive an unbounded allocation. The CRC
// rejects bit flips before any field is interpreted.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

namespace dfly {

struct ExperimentResult;

namespace result_io {

// The on-disk format is little-endian and written by memcpy of native values.
static_assert(std::endian::native == std::endian::little,
              "the result-marker format requires a little-endian host");

// Versions 1-4 also framed whole-simulation snapshots; the result payload
// has not changed since v4, so v4 markers still load.
inline constexpr std::uint32_t kFormatVersion = 4;
/// Value of the byte-order sentinel field as written; a byte-swapped file
/// reads back 0x04030201 and is rejected with a clear message.
inline constexpr std::uint32_t kByteOrderSentinel = 0x01020304u;
/// The kind byte of a result marker (1 was the retired simulation snapshot).
inline constexpr std::uint8_t kResultKind = 2;

class Writer {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s);

  const std::string& buffer() const { return buf_; }

 private:
  void raw(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  std::string buf_;
};

class Reader {
 public:
  /// Non-owning view of a validated payload.
  Reader(const char* data, std::size_t size) : data_(data), end_(data + size) {}
  explicit Reader(const std::string& payload) : Reader(payload.data(), payload.size()) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean();
  std::string str();

  /// Reads an element count that claims `min_element_bytes` per element and
  /// rejects any count the remaining payload cannot possibly hold — the guard
  /// that keeps a corrupt length field from triggering a huge reserve().
  std::size_t count(std::size_t min_element_bytes);

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - data_); }
  /// Throws unless the payload was consumed exactly.
  void expect_end() const;

 private:
  template <typename T>
  T get() {
    // The byte image must be the value itself: fixed-width integer scalars
    // only, so the little-endian static_assert above covers every field.
    static_assert(std::is_trivially_copyable_v<T> && std::is_integral_v<T>,
                  "the marker format reads fixed-width integer scalars only");
    need(sizeof(T));
    T v;
    __builtin_memcpy(&v, data_, sizeof v);
    data_ += sizeof v;
    return v;
  }
  void need(std::size_t n) const;

  const char* data_;
  const char* end_;
};

/// Frames `payload` (header + CRC) and writes it to `path` atomically via a
/// sibling tmp file + rename, fsyncing both the file and its parent
/// directory so the marker is durable once this returns. Throws
/// std::runtime_error on any I/O failure, including a short write.
void write_marker_file(const std::string& path, const std::string& payload);

/// Reads and validates a marker file: magic, version, byte order, kind, size
/// and CRC must all check out. Returns the payload. Throws
/// std::runtime_error with a specific message on every corruption mode.
std::string read_marker_file(const std::string& path);

/// Writes / reads the result of one finished experiment.
void save_result(const std::string& path, const ExperimentResult& result);
ExperimentResult load_result(const std::string& path);

}  // namespace result_io
}  // namespace dfly
