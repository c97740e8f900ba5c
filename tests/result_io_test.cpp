// Result markers and sweep resume: the marker container's robustness
// (truncation, bit flips, wrong kind, hostile counts, durable writes), the
// result round trip, and run_matrix's resume protocol — a sweep killed
// between configs re-runs only the configs it had not finished, and a marker
// is only ever loaded by the run it records.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/interference.hpp"
#include "core/result_io.hpp"
#include "core/run_matrix.hpp"
#include "workload/synthetic.hpp"

namespace dfly {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) { return ::testing::TempDir() + "/" + name; }

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// ---------------------------------------------------------------------------
// The framed marker container
// ---------------------------------------------------------------------------

TEST(SnapshotIo, WriterReaderRoundTripAllFieldTypes) {
  result_io::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-123456);
  w.i64(-9'000'000'000'000LL);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  w.size(42);
  w.str("hello snapshot");
  w.str("");

  const std::string path = temp_path("roundtrip.done");
  result_io::write_marker_file(path, w.buffer());
  const std::string payload = result_io::read_marker_file(path);
  result_io::Reader r(payload);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -123456);
  EXPECT_EQ(r.i64(), -9'000'000'000'000LL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.u64(), 42u);  // written via size()
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_EQ(r.str(), "");
  EXPECT_NO_THROW(r.expect_end());
  std::remove(path.c_str());
}

TEST(SnapshotIo, WrongKindIsRejected) {
  // Kind 1 framed the retired whole-simulation snapshots; only result
  // markers (kind 2) are read.
  const std::string path = temp_path("kind.done");
  result_io::Writer w;
  w.u32(7);
  result_io::write_marker_file(path, w.buffer());
  std::string bytes = slurp(path);
  ASSERT_EQ(bytes[12], static_cast<char>(result_io::kResultKind));
  bytes[12] = 1;
  spit(path, bytes);
  EXPECT_THROW(result_io::read_marker_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SnapshotIo, DirectoryPathIsRejectedCleanly) {
  // Sweep marker paths are directories; feeding one to the file reader must
  // throw our error, not an ios_base::failure from the stream buffer.
  const std::string dir = temp_path("snapdir");
  fs::create_directories(dir);
  EXPECT_THROW(result_io::read_marker_file(dir), std::runtime_error);
  fs::remove_all(dir);
}

TEST(SnapshotIo, WriteFailureThrowsInsteadOfLeavingATornFile) {
  // The durable write path (tmp + fsync + rename + dir fsync) must fail
  // loudly at save time. Point the marker inside a "directory" that is
  // actually a regular file: the tmp open fails, and no stray file appears.
  const std::string not_a_dir = temp_path("not-a-dir");
  spit(not_a_dir, "plain file");
  const std::string path = not_a_dir + "/x.done";
  result_io::Writer w;
  w.u32(7);
  EXPECT_THROW(result_io::write_marker_file(path, w.buffer()),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(not_a_dir.c_str());
}

TEST(SnapshotIo, RenameFailureCleansUpTheTmpFile) {
  // Write succeeds but the rename target is occupied by a non-empty
  // directory: the tmp file must be removed, not leaked.
  const std::string target = temp_path("occupied");
  fs::create_directories(target + "/inner");
  result_io::Writer w;
  w.u32(7);
  EXPECT_THROW(result_io::write_marker_file(target, w.buffer()),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(target + ".tmp")) << "failed write leaked its tmp file";
  fs::remove_all(target);
}

TEST(SnapshotIo, MissingFileThrows) {
  EXPECT_THROW(result_io::read_marker_file("/nonexistent/dir/x.done"),
               std::runtime_error);
}

TEST(SnapshotIo, EveryTruncationLengthThrows) {
  const std::string path = temp_path("trunc.done");
  result_io::Writer w;
  for (int i = 0; i < 16; ++i) w.u64(static_cast<std::uint64_t>(i));
  result_io::write_marker_file(path, w.buffer());
  const std::string whole = slurp(path);
  ASSERT_GT(whole.size(), 21u);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    spit(path, whole.substr(0, len));
    EXPECT_THROW(result_io::read_marker_file(path), std::runtime_error)
        << "truncated to " << len << " of " << whole.size() << " bytes";
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, EverySingleByteCorruptionThrows) {
  // Any flipped byte must land in a checked field: magic/version/sentinel/
  // kind/size are validated individually, payload and CRC by the checksum.
  const std::string path = temp_path("flip.done");
  result_io::Writer w;
  for (int i = 0; i < 16; ++i) w.u64(static_cast<std::uint64_t>(i));
  result_io::write_marker_file(path, w.buffer());
  const std::string whole = slurp(path);
  for (std::size_t pos = 0; pos < whole.size(); ++pos) {
    std::string bad = whole;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    spit(path, bad);
    EXPECT_THROW(result_io::read_marker_file(path), std::runtime_error)
        << "flipped byte " << pos << " of " << whole.size();
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, CountRejectsLengthsThePayloadCannotHold) {
  result_io::Writer w;
  w.u64(1u << 30);  // claims a billion 8-byte elements in a 16-byte payload
  w.u64(0);
  result_io::Reader r(w.buffer());
  EXPECT_THROW(r.count(8), std::runtime_error);
}

TEST(SnapshotIo, ExpectEndCatchesTrailingBytes) {
  result_io::Writer w;
  w.u32(1);
  w.u32(2);
  result_io::Reader r(w.buffer());
  r.u32();
  EXPECT_THROW(r.expect_end(), std::runtime_error);
}

TEST(SnapshotIo, ReadPastEndThrowsInsteadOfOverrunning) {
  result_io::Writer w;
  w.u32(7);
  result_io::Reader r(w.buffer());
  r.u32();
  EXPECT_THROW(r.u8(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Result markers and sweep resume (run_matrix marker directory)
// ---------------------------------------------------------------------------

Workload ring_workload(Bytes bytes = 32 * units::kKiB) {
  return {"ring", make_ring_trace(24, bytes, 2)};
}

ExperimentOptions tiny_options(std::uint64_t seed) {
  ExperimentOptions o;
  o.topo = TopoParams::tiny();
  o.seed = seed;
  return o;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.metrics.comm_time_ms, b.metrics.comm_time_ms);
  EXPECT_EQ(a.metrics.avg_hops, b.metrics.avg_hops);
  EXPECT_EQ(a.metrics.local_traffic_mb, b.metrics.local_traffic_mb);
  EXPECT_EQ(a.metrics.global_traffic_mb, b.metrics.global_traffic_mb);
  EXPECT_EQ(a.metrics.local_saturation_ms, b.metrics.local_saturation_ms);
  EXPECT_EQ(a.metrics.global_saturation_ms, b.metrics.global_saturation_ms);
  EXPECT_EQ(a.metrics.makespan_ms, b.metrics.makespan_ms);
  EXPECT_EQ(a.metrics.events, b.metrics.events);
  EXPECT_EQ(a.metrics.chunks, b.metrics.chunks);
  EXPECT_EQ(a.metrics.bytes_delivered, b.metrics.bytes_delivered);
  EXPECT_EQ(a.metrics.scheduler.peak_pending, b.metrics.scheduler.peak_pending);
  EXPECT_EQ(a.metrics.scheduler.resizes, b.metrics.scheduler.resizes);
  EXPECT_EQ(a.metrics.scheduler.overflow_promotions, b.metrics.scheduler.overflow_promotions);
  EXPECT_EQ(a.background_bytes, b.background_bytes);
  EXPECT_EQ(a.stalled, b.stalled);
  EXPECT_EQ(a.conservation_ok, b.conservation_ok);
  EXPECT_EQ(a.trace_chunks_seen, b.trace_chunks_seen);
  EXPECT_EQ(a.trace_chunks_sampled, b.trace_chunks_sampled);
}

/// The file names of the .done markers in `dir`.
std::vector<std::string> markers(const std::string& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.ends_with(".done")) names.push_back(name);
  }
  return names;
}

/// The marker of `config` in `dir`; fails the test unless there is one.
std::string marker_of(const std::string& dir, const std::string& config) {
  std::string found;
  for (const std::string& name : markers(dir)) {
    if (name.starts_with(config + ".")) {
      EXPECT_TRUE(found.empty()) << "two markers for " << config;
      found = (fs::path(dir) / name).string();
    }
  }
  EXPECT_FALSE(found.empty()) << "no marker for " << config;
  return found;
}

TEST(CheckpointSweep, ResultMarkerRoundTrip) {
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};
  const ExperimentResult result = run_experiment(ring_workload(), config, tiny_options(3));

  const std::string path = temp_path("result.done");
  result_io::save_result(path, result);
  const ExperimentResult back = result_io::load_result(path);
  expect_identical(result, back);
  EXPECT_EQ(back.health_report, result.health_report);
  EXPECT_EQ(back.hit_event_limit, result.hit_event_limit);
  std::remove(path.c_str());
}

TEST(SweepResume, KilledBetweenConfigsRerunsOnlyTheUnfinishedConfig) {
  const Workload workload = ring_workload();
  const std::vector<ExperimentConfig> configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal},
      {PlacementKind::RandomNode, RoutingKind::Adaptive}};
  const ExperimentOptions base = tiny_options(17);
  const std::vector<ExperimentResult> golden = run_matrix(workload, configs, base, 1);

  const std::string dir = temp_path("sweep-resume");
  fs::remove_all(dir);
  ExperimentOptions marked = base;
  marked.checkpoint.path = dir;
  const std::vector<ExperimentResult> first = run_matrix(workload, configs, marked, 1);
  for (std::size_t i = 0; i < configs.size(); ++i) expect_identical(golden[i], first[i]);
  ASSERT_EQ(markers(dir).size(), configs.size());

  // A kill after the first config finished: the second left no marker.
  const std::string survivor = marker_of(dir, configs[0].name());
  const std::string killed = marker_of(dir, configs[1].name());
  const fs::file_time_type survivor_mtime = fs::last_write_time(survivor);
  ASSERT_TRUE(fs::remove(killed));

  ExperimentOptions resumed = marked;
  resumed.checkpoint.resume = true;
  const std::vector<ExperimentResult> finished = run_matrix(workload, configs, resumed, 2);
  for (std::size_t i = 0; i < configs.size(); ++i) expect_identical(golden[i], finished[i]);
  EXPECT_TRUE(fs::exists(killed)) << "the re-run config must leave its marker";
  EXPECT_EQ(fs::last_write_time(survivor), survivor_mtime)
      << "the finished config must be loaded, not re-run";
  EXPECT_EQ(markers(dir).size(), configs.size());
  fs::remove_all(dir);
}

TEST(SweepResume, DifferentWorkloadsNeverShareMarkers) {
  // Same config names, same directory, resume on: each workload must get the
  // result of a fresh run of itself, never the other's marker.
  const std::vector<ExperimentConfig> configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal}};
  const Workload big = ring_workload(32 * units::kKiB);
  const Workload small = ring_workload(4 * units::kKiB);
  const ExperimentOptions base = tiny_options(23);
  const ExperimentResult big_fresh = run_matrix(big, configs, base, 1)[0];
  const ExperimentResult small_fresh = run_matrix(small, configs, base, 1)[0];
  ASSERT_NE(big_fresh.metrics.bytes_delivered, small_fresh.metrics.bytes_delivered);

  const std::string dir = temp_path("sweep-keyed");
  fs::remove_all(dir);
  ExperimentOptions resumed = base;
  resumed.checkpoint.path = dir;
  resumed.checkpoint.resume = true;
  expect_identical(big_fresh, run_matrix(big, configs, resumed, 1)[0]);
  expect_identical(small_fresh, run_matrix(small, configs, resumed, 1)[0]);
  EXPECT_EQ(markers(dir).size(), 2u);
  // A different seed is a different run too.
  ExperimentOptions reseeded = resumed;
  reseeded.seed = 24;
  run_matrix(small, configs, reseeded, 1);
  EXPECT_EQ(markers(dir).size(), 3u);
  // Both workloads resume from their own markers.
  expect_identical(big_fresh, run_matrix(big, configs, resumed, 1)[0]);
  expect_identical(small_fresh, run_matrix(small, configs, resumed, 1)[0]);
  EXPECT_EQ(markers(dir).size(), 3u);
  fs::remove_all(dir);
}

TEST(SweepResume, InterferenceBaselineDoesNotLoadTheBackgroundMarkers) {
  // run_interference sweeps one options object twice, with and without the
  // background job: the two sweeps must key their markers apart.
  const Workload workload = ring_workload();
  const std::vector<ExperimentConfig> configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal}};
  BackgroundSpec spec;
  spec.message_bytes = 8 * units::kKiB;
  spec.interval = 5 * units::kMicrosecond;
  const ExperimentOptions base = tiny_options(29);
  const InterferenceResult fresh = run_interference(workload, configs, base, spec, 1);

  const std::string dir = temp_path("sweep-interference");
  fs::remove_all(dir);
  ExperimentOptions resumed = base;
  resumed.checkpoint.path = dir;
  resumed.checkpoint.resume = true;
  for (int pass = 0; pass < 2; ++pass) {
    const InterferenceResult r = run_interference(workload, configs, resumed, spec, 1);
    EXPECT_EQ(r.with_background[0].metrics.comm_time_ms,
              fresh.with_background[0].metrics.comm_time_ms) << "pass " << pass;
    EXPECT_EQ(r.baseline[0].metrics.comm_time_ms, fresh.baseline[0].metrics.comm_time_ms)
        << "pass " << pass;
    EXPECT_EQ(markers(dir).size(), 2u);
  }
  EXPECT_NE(fresh.with_background[0].metrics.events, fresh.baseline[0].metrics.events);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dfly
