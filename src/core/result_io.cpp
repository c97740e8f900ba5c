#include "core/result_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/experiment.hpp"

namespace dfly::result_io {
namespace {

constexpr char kMagic[4] = {'D', 'F', 'C', 'K'};
// Caps the header's payload-size field. Any plausible result fits well under
// this; a corrupt size field larger than the file is caught by the length
// check, this cap just keeps the error message honest.
constexpr std::uint64_t kMaxPayload = 1ull << 32;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("result marker: " + what);
}

/// CRC-32 (IEEE, reflected).
std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) corrupt("bad boolean value");
  return v == 1;
}

std::string Reader::str() {
  const std::uint32_t len = u32();
  if (len > remaining()) corrupt("truncated string");
  std::string s(data_, len);
  data_ += len;
  return s;
}

std::size_t Reader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  if (min_element_bytes == 0) min_element_bytes = 1;
  if (n > remaining() / min_element_bytes) corrupt("implausible element count");
  return static_cast<std::size_t>(n);
}

void Reader::expect_end() const {
  if (data_ != end_) corrupt("trailing bytes after payload");
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) corrupt("truncated payload");
}

void write_marker_file(const std::string& path, const std::string& payload) {
  namespace fs = std::filesystem;
  // Frame the whole file in memory first: one write_fully below, and the CRC
  // is computed before any byte touches the disk.
  std::string frame;
  frame.reserve(sizeof kMagic + 4 + 4 + 1 + 8 + payload.size() + 4);
  frame.append(kMagic, sizeof kMagic);
  const std::uint32_t version = kFormatVersion;
  const std::uint32_t order = kByteOrderSentinel;
  const std::uint8_t kind_byte = kResultKind;
  const auto payload_size = static_cast<std::uint64_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  frame.append(reinterpret_cast<const char*>(&version), sizeof version);
  frame.append(reinterpret_cast<const char*>(&order), sizeof order);
  frame.append(reinterpret_cast<const char*>(&kind_byte), sizeof kind_byte);
  frame.append(reinterpret_cast<const char*>(&payload_size), sizeof payload_size);
  frame.append(payload);
  frame.append(reinterpret_cast<const char*>(&crc), sizeof crc);

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("result marker: cannot open for writing: " + tmp);
  const auto fail = [&](const std::string& what) {
    ::close(fd);
    std::error_code ec;
    fs::remove(tmp, ec);
    throw std::runtime_error("result marker: " + what + ": " + tmp);
  };
  for (std::size_t off = 0; off < frame.size();) {
    const ::ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A full disk surfaces here, not as a truncated file at resume time.
      fail("write failed (disk full?)");
    }
    off += static_cast<std::size_t>(n);
  }
  // fsync the data before the rename and the directory after it: only that
  // order makes the marker durable — a rename alone can survive a crash
  // while the bytes it points at do not.
  if (::fsync(fd) != 0) fail("fsync failed");
  if (::close(fd) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw std::runtime_error("result marker: close failed: " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw std::runtime_error("result marker: cannot rename into place: " + path);
  }
  std::string dir = fs::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) throw std::runtime_error("result marker: cannot open parent directory: " + dir);
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) throw std::runtime_error("result marker: cannot fsync parent directory: " + dir);
}

std::string read_marker_file(const std::string& path) {
  // A directory opens fine but explodes from the stream buffer on read
  // (run_matrix's checkpoint path IS a directory, with the markers inside).
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec))
    throw std::runtime_error("result marker: path is a directory (a sweep keeps its per-config "
                             ".done markers inside): " + path);
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("result marker: cannot open: " + path);
  std::string file;
  try {
    file.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  } catch (const std::ios_base::failure&) {
    throw std::runtime_error("result marker: read failed: " + path);
  }
  if (!f.good() && !f.eof()) throw std::runtime_error("result marker: read failed: " + path);

  constexpr std::size_t kHeader = 4 + 4 + 4 + 1 + 8;
  constexpr std::size_t kTrailer = 4;
  if (file.size() < kHeader + kTrailer) corrupt("file too short for header");
  if (__builtin_memcmp(file.data(), kMagic, sizeof kMagic) != 0) corrupt("bad magic");
  std::uint32_t version, order;
  std::uint8_t kind_byte;
  std::uint64_t payload_size;
  __builtin_memcpy(&version, file.data() + 4, sizeof version);
  __builtin_memcpy(&order, file.data() + 8, sizeof order);
  __builtin_memcpy(&kind_byte, file.data() + 12, sizeof kind_byte);
  __builtin_memcpy(&payload_size, file.data() + 13, sizeof payload_size);
  if (version != kFormatVersion)
    corrupt("unsupported version " + std::to_string(version));
  if (order != kByteOrderSentinel) corrupt("byte-order mismatch (not little-endian?)");
  if (kind_byte != kResultKind) corrupt("wrong marker kind");
  if (payload_size > kMaxPayload) corrupt("implausible payload size");
  if (file.size() != kHeader + payload_size + kTrailer) corrupt("payload size mismatch");

  std::uint32_t stored_crc;
  __builtin_memcpy(&stored_crc, file.data() + kHeader + payload_size, sizeof stored_crc);
  const std::uint32_t actual = crc32(file.data() + kHeader, payload_size);
  if (stored_crc != actual) corrupt("CRC mismatch (corrupt or bit-flipped file)");
  return file.substr(kHeader, payload_size);
}

// --- finished-run results ---------------------------------------------------

namespace {

void save_dvec(Writer& w, const std::vector<double>& v) {
  w.size(v.size());
  for (const double x : v) w.f64(x);
}

std::vector<double> load_dvec(Reader& r) {
  const std::size_t n = r.count(8);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

}  // namespace

void save_result(const std::string& path, const ExperimentResult& result) {
  Writer w;
  w.str(result.config);
  const RunMetrics& m = result.metrics;
  save_dvec(w, m.comm_time_ms);
  save_dvec(w, m.avg_hops);
  save_dvec(w, m.local_traffic_mb);
  save_dvec(w, m.global_traffic_mb);
  save_dvec(w, m.local_saturation_ms);
  save_dvec(w, m.global_saturation_ms);
  w.f64(m.makespan_ms);
  w.u64(m.events);
  w.u64(m.chunks);
  w.i64(m.bytes_delivered);
  w.size(m.scheduler.buckets);
  w.i64(m.scheduler.bucket_width);
  w.size(m.scheduler.calendar_events);
  w.size(m.scheduler.overflow_events);
  w.size(m.scheduler.peak_pending);
  w.u64(m.scheduler.resizes);
  w.u64(m.scheduler.overflow_promotions);
  w.i64(result.background_bytes);
  w.boolean(result.hit_event_limit);
  w.boolean(result.stalled);
  w.boolean(result.conservation_ok);
  w.str(result.health_report);
  w.str(result.telemetry_dir);
  w.u64(result.trace_chunks_seen);
  w.u64(result.trace_chunks_sampled);
  write_marker_file(path, w.buffer());
}

ExperimentResult load_result(const std::string& path) {
  const std::string payload = read_marker_file(path);
  Reader r(payload);
  ExperimentResult result;
  result.config = r.str();
  RunMetrics& m = result.metrics;
  m.comm_time_ms = load_dvec(r);
  m.avg_hops = load_dvec(r);
  m.local_traffic_mb = load_dvec(r);
  m.global_traffic_mb = load_dvec(r);
  m.local_saturation_ms = load_dvec(r);
  m.global_saturation_ms = load_dvec(r);
  m.makespan_ms = r.f64();
  m.events = r.u64();
  m.chunks = r.u64();
  m.bytes_delivered = r.i64();
  m.scheduler.buckets = r.u64();
  m.scheduler.bucket_width = r.i64();
  m.scheduler.calendar_events = r.u64();
  m.scheduler.overflow_events = r.u64();
  m.scheduler.peak_pending = r.u64();
  m.scheduler.resizes = r.u64();
  m.scheduler.overflow_promotions = r.u64();
  result.background_bytes = r.i64();
  result.hit_event_limit = r.boolean();
  result.stalled = r.boolean();
  result.conservation_ok = r.boolean();
  result.health_report = r.str();
  result.telemetry_dir = r.str();
  result.trace_chunks_seen = r.u64();
  result.trace_chunks_sampled = r.u64();
  r.expect_end();
  return result;
}

}  // namespace dfly::result_io
