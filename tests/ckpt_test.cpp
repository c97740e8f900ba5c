// Checkpoint/restore tests: snapshot container robustness (truncation, bit
// flips, wrong kind, hostile counts), bit-exact resume for minimal and
// adaptive routing, identity validation, rejection of
// sharded-engine snapshots, and the run_matrix sweep resume protocol.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/snapshot_io.hpp"
#include "core/experiment.hpp"
#include "core/run_matrix.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "routing/minimal.hpp"
#include "sim/engine.hpp"
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
// snapshot_io: the framed container
// ---------------------------------------------------------------------------

TEST(SnapshotIo, WriterReaderRoundTripAllFieldTypes) {
  ckpt::Writer w;
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

  const std::string path = temp_path("roundtrip.ckpt");
  ckpt::write_snapshot_file(path, ckpt::SnapshotKind::SimState, w.buffer());
  const std::string payload = ckpt::read_snapshot_file(path, ckpt::SnapshotKind::SimState);
  ckpt::Reader r(payload);
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
  const std::string path = temp_path("kind.ckpt");
  ckpt::Writer w;
  w.u32(7);
  ckpt::write_snapshot_file(path, ckpt::SnapshotKind::SimState, w.buffer());
  EXPECT_THROW(ckpt::read_snapshot_file(path, ckpt::SnapshotKind::SweepResult),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(SnapshotIo, DirectoryPathIsRejectedCleanly) {
  // Sweep checkpoint paths are directories; feeding one to the file reader
  // must throw our error, not an ios_base::failure from the stream buffer.
  const std::string dir = temp_path("snapdir");
  fs::create_directories(dir);
  EXPECT_THROW(ckpt::read_snapshot_file(dir, ckpt::SnapshotKind::SimState), std::runtime_error);
  fs::remove_all(dir);
}

TEST(SnapshotIo, WriteFailureThrowsInsteadOfLeavingATornFile) {
  // The durable write path (tmp + fsync + rename + dir fsync) must fail
  // loudly at save time. Point the snapshot inside a "directory" that is
  // actually a regular file: the tmp open fails, and no stray file appears.
  const std::string not_a_dir = temp_path("not-a-dir");
  spit(not_a_dir, "plain file");
  const std::string path = not_a_dir + "/x.ckpt";
  ckpt::Writer w;
  w.u32(7);
  EXPECT_THROW(ckpt::write_snapshot_file(path, ckpt::SnapshotKind::SimState, w.buffer()),
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
  ckpt::Writer w;
  w.u32(7);
  EXPECT_THROW(ckpt::write_snapshot_file(target, ckpt::SnapshotKind::SimState, w.buffer()),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(target + ".tmp")) << "failed write leaked its tmp file";
  fs::remove_all(target);
}

TEST(SnapshotIo, MissingFileThrows) {
  EXPECT_THROW(ckpt::read_snapshot_file("/nonexistent/dir/x.ckpt", ckpt::SnapshotKind::SimState),
               std::runtime_error);
}

TEST(SnapshotIo, EveryTruncationLengthThrows) {
  const std::string path = temp_path("trunc.ckpt");
  ckpt::Writer w;
  for (int i = 0; i < 16; ++i) w.u64(static_cast<std::uint64_t>(i));
  ckpt::write_snapshot_file(path, ckpt::SnapshotKind::SimState, w.buffer());
  const std::string whole = slurp(path);
  ASSERT_GT(whole.size(), 21u);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    spit(path, whole.substr(0, len));
    EXPECT_THROW(ckpt::read_snapshot_file(path, ckpt::SnapshotKind::SimState), std::runtime_error)
        << "truncated to " << len << " of " << whole.size() << " bytes";
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, EverySingleByteCorruptionThrows) {
  // Any flipped byte must land in a checked field: magic/version/sentinel/
  // kind/size are validated individually, payload and CRC by the checksum.
  const std::string path = temp_path("flip.ckpt");
  ckpt::Writer w;
  for (int i = 0; i < 16; ++i) w.u64(static_cast<std::uint64_t>(i));
  ckpt::write_snapshot_file(path, ckpt::SnapshotKind::SimState, w.buffer());
  const std::string whole = slurp(path);
  for (std::size_t pos = 0; pos < whole.size(); ++pos) {
    std::string bad = whole;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    spit(path, bad);
    EXPECT_THROW(ckpt::read_snapshot_file(path, ckpt::SnapshotKind::SimState), std::runtime_error)
        << "flipped byte " << pos << " of " << whole.size();
  }
  std::remove(path.c_str());
}

TEST(SnapshotIo, CountRejectsLengthsThePayloadCannotHold) {
  ckpt::Writer w;
  w.u64(1u << 30);  // claims a billion 8-byte elements in a 16-byte payload
  w.u64(0);
  ckpt::Reader r(w.buffer());
  EXPECT_THROW(r.count(8), std::runtime_error);
}

TEST(SnapshotIo, ExpectEndCatchesTrailingBytes) {
  ckpt::Writer w;
  w.u32(1);
  w.u32(2);
  ckpt::Reader r(w.buffer());
  r.u32();
  EXPECT_THROW(r.expect_end(), std::runtime_error);
}

TEST(SnapshotIo, ReadPastEndThrowsInsteadOfOverrunning) {
  ckpt::Writer w;
  w.u32(7);
  ckpt::Reader r(w.buffer());
  r.u32();
  EXPECT_THROW(r.u8(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Bit-exact resume
// ---------------------------------------------------------------------------

Workload ckpt_workload() { return {"ring", make_ring_trace(24, 32 * units::kKiB, 2)}; }

ExperimentOptions ckpt_options(const std::string& telemetry_dir) {
  ExperimentOptions o;
  o.topo = TopoParams::tiny();
  o.seed = 11;
  o.max_events = 100'000'000;
  o.telemetry.enabled = true;
  o.telemetry.sample_rate = 0.05;
  o.telemetry.snapshot_interval = 20 * units::kMicrosecond;
  o.telemetry.out_dir = temp_path(telemetry_dir);
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
  EXPECT_EQ(a.stalled, b.stalled);
  EXPECT_EQ(a.conservation_ok, b.conservation_ok);
  EXPECT_EQ(a.trace_chunks_seen, b.trace_chunks_seen);
  EXPECT_EQ(a.trace_chunks_sampled, b.trace_chunks_sampled);
}

void run_resume_cycle(RoutingKind routing, PlacementKind placement, const std::string& tag) {
  const ExperimentConfig config{placement, routing};
  const Workload workload = ckpt_workload();

  const ExperimentOptions golden_opts = ckpt_options(tag + "-golden");
  const ExperimentResult golden = run_experiment(workload, config, golden_opts);
  const SimTime makespan = static_cast<SimTime>(golden.metrics.makespan_ms * 1e6);
  ASSERT_GT(makespan, 0);

  // Interrupted run: snapshot every T/6, die at the first snapshot past T/2.
  const std::string snapshot = temp_path(tag + ".ckpt");
  ExperimentOptions interrupted_opts = ckpt_options(tag + "-resumed");
  interrupted_opts.checkpoint.interval = makespan / 6 > 0 ? makespan / 6 : 1;
  interrupted_opts.checkpoint.path = snapshot;
  interrupted_opts.checkpoint.stop_after = makespan / 2;
  const ExperimentResult partial = run_experiment(workload, config, interrupted_opts);
  ASSERT_TRUE(partial.stopped_at_checkpoint);
  EXPECT_LT(partial.metrics.events, golden.metrics.events);
  ASSERT_TRUE(fs::exists(snapshot));

  const ckpt::CheckpointInfo info = ckpt::inspect_checkpoint(snapshot);
  EXPECT_EQ(info.config, config.name());
  EXPECT_EQ(info.seed, golden_opts.seed);
  EXPECT_GE(info.time, interrupted_opts.checkpoint.stop_after);
  EXPECT_GT(info.pending_events, 0u);
  EXPECT_TRUE(info.has_monitor);
  EXPECT_TRUE(info.has_telemetry);

  ExperimentOptions resumed_opts = interrupted_opts;
  resumed_opts.checkpoint.resume = true;
  resumed_opts.checkpoint.stop_after = 0;
  const ExperimentResult resumed = run_experiment(workload, config, resumed_opts);
  EXPECT_FALSE(resumed.stopped_at_checkpoint);
  expect_identical(golden, resumed);

  // The exported telemetry must match byte-for-byte too — the counter
  // timeline and the sampled chunk trace, not just the end-of-run metrics.
  for (const char* artifact : {"counters.jsonl", "trace.json", "heatmap.csv"}) {
    const std::string g = slurp(golden_opts.telemetry.out_dir + "/" + config.name() + "/" + artifact);
    const std::string r =
        slurp(resumed_opts.telemetry.out_dir + "/" + config.name() + "/" + artifact);
    ASSERT_FALSE(g.empty());
    EXPECT_EQ(g, r) << artifact << " differs after resume";
  }
  std::remove(snapshot.c_str());
}

TEST(CheckpointResume, MinimalRoutingIsBitExact) {
  run_resume_cycle(RoutingKind::Minimal, PlacementKind::Contiguous, "ckpt-min");
}

TEST(CheckpointResume, AdaptiveRoutingIsBitExact) {
  run_resume_cycle(RoutingKind::Adaptive, PlacementKind::RandomNode, "ckpt-adp");
}

// ---------------------------------------------------------------------------
// Identity validation and corrupt snapshots through the full resume path
// ---------------------------------------------------------------------------

/// Runs an interrupted experiment and leaves its snapshot at the returned
/// path. Cached across tests via static because golden runs dominate runtime.
std::string make_interrupted_snapshot(const ExperimentConfig& config, ExperimentOptions options,
                                      const std::string& tag) {
  const std::string snapshot = temp_path(tag + ".ckpt");
  options.checkpoint.interval = 4 * units::kMicrosecond;
  options.checkpoint.path = snapshot;
  options.checkpoint.stop_after = 8 * units::kMicrosecond;
  const ExperimentResult partial = run_experiment(ckpt_workload(), config, options);
  EXPECT_TRUE(partial.stopped_at_checkpoint);
  return snapshot;
}

TEST(CheckpointResume, MismatchedIdentityIsRejected) {
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};
  const std::string snapshot =
      make_interrupted_snapshot(config, ckpt_options("ckpt-id"), "ckpt-id");

  ExperimentOptions resume = ckpt_options("ckpt-id");
  resume.checkpoint.interval = 4 * units::kMicrosecond;
  resume.checkpoint.path = snapshot;
  resume.checkpoint.resume = true;

  ExperimentOptions wrong_seed = resume;
  wrong_seed.seed = 999;
  EXPECT_THROW(run_experiment(ckpt_workload(), config, wrong_seed), std::runtime_error);

  const ExperimentConfig wrong_config{PlacementKind::RandomNode, RoutingKind::Minimal};
  EXPECT_THROW(run_experiment(ckpt_workload(), wrong_config, resume), std::runtime_error);

  // The unmodified identity still resumes fine.
  EXPECT_NO_THROW(run_experiment(ckpt_workload(), config, resume));
  std::remove(snapshot.c_str());
}

TEST(CheckpointResume, CorruptSnapshotsThrowNeverCrash) {
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};
  const std::string snapshot =
      make_interrupted_snapshot(config, ckpt_options("ckpt-fuzz"), "ckpt-fuzz");
  const std::string whole = slurp(snapshot);
  ASSERT_GT(whole.size(), 64u);

  ExperimentOptions resume = ckpt_options("ckpt-fuzz");
  resume.checkpoint.interval = 4 * units::kMicrosecond;
  resume.checkpoint.path = snapshot;
  resume.checkpoint.resume = true;

  // Truncations, including cutting into the header and off-by-one at the end.
  for (const std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{12}, std::size_t{20},
                                std::size_t{21}, whole.size() / 3, whole.size() / 2,
                                whole.size() - 5, whole.size() - 1}) {
    spit(snapshot, whole.substr(0, len));
    EXPECT_THROW(run_experiment(ckpt_workload(), config, resume), std::runtime_error)
        << "truncated to " << len << " bytes";
  }

  // Single-byte corruptions sampled across the whole file (header, payload
  // and trailing CRC): the container CRC must catch every payload flip.
  for (std::size_t pos = 0; pos < whole.size(); pos += whole.size() / 64 + 1) {
    std::string bad = whole;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    spit(snapshot, bad);
    EXPECT_THROW(run_experiment(ckpt_workload(), config, resume), std::runtime_error)
        << "flipped byte " << pos;
  }
  std::remove(snapshot.c_str());
}

// ---------------------------------------------------------------------------
// Format v2 single-lane fields: the serial engine writes mode byte 0, one
// chunk arena, one counter block and one tracer lane. Any other value came
// from the removed sharded engine and must be refused with a clear message.
// ---------------------------------------------------------------------------

class NullHandler : public EventHandler {
 public:
  void handle_event(SimTime, const EventPayload&) override {}
};

std::string patch_u32(std::string payload, std::size_t at, std::uint32_t value) {
  std::memcpy(payload.data() + at, &value, sizeof value);
  return payload;
}

template <typename Load>
void expect_sharded_snapshot_rejected(const std::string& payload, Load load) {
  ckpt::Reader r(payload);
  try {
    load(r);
    ADD_FAILURE() << "a sharded-layout snapshot was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sharded snapshots are no longer supported"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFormat, EngineModeByteMustBeSerial) {
  NullHandler handler;
  Engine engine;
  engine.schedule(5, &handler, EventPayload{});
  ckpt::Writer w;
  engine.save_state(w, [](EventHandler*) { return 0u; });
  const auto handler_of = [&handler](std::uint32_t) -> EventHandler* { return &handler; };
  ASSERT_EQ(w.buffer()[0], 0);

  ckpt::Reader ok(w.buffer());
  Engine restored;
  restored.load_state(ok, handler_of);
  EXPECT_EQ(restored.pending(), 1u);

  std::string sharded = w.buffer();
  sharded[0] = 1;
  expect_sharded_snapshot_rejected(sharded, [&](ckpt::Reader& r) {
    Engine fresh;
    fresh.load_state(r, handler_of);
  });
}

struct NetworkRig {
  NetworkRig()
      : topo(TopoParams::tiny()), routing(topo), network(engine, topo, params, routing, Rng(3)) {}
  Engine engine;
  DragonflyTopology topo;
  NetworkParams params = NetworkParams::theta();
  MinimalRouting routing;
  Network network;
};

/// A network snapshot taken mid-flight, with chunks in the pool.
std::string midflight_network_payload() {
  NetworkRig rig;
  rig.network.send(0, 5, 64 * units::kKiB);
  rig.engine.run_until(2 * units::kMicrosecond);
  ckpt::Writer w;
  rig.network.save_state(w);
  return w.buffer();
}

TEST(CheckpointFormat, NetworkChunkArenaCountMustBeOne) {
  const std::string payload = midflight_network_payload();
  std::uint32_t arenas = 0;
  std::memcpy(&arenas, payload.data(), sizeof arenas);
  ASSERT_EQ(arenas, 1u);
  {
    NetworkRig restored;
    ckpt::Reader r(payload);
    restored.network.load_state(r);
    EXPECT_GT(restored.network.bytes_injected(), 0);
  }
  expect_sharded_snapshot_rejected(patch_u32(payload, 0, 2), [](ckpt::Reader& r) {
    NetworkRig fresh;
    fresh.network.load_state(r);
  });
}

TEST(CheckpointFormat, NetworkCounterBlockCountMustBeOne) {
  // The payload ends with the counter-block count, four 8-byte counters
  // and the four 8-byte routing RNG words.
  const std::string payload = midflight_network_payload();
  const std::size_t at = payload.size() - (4 + 4 * 8 + 4 * 8);
  std::uint32_t blocks = 0;
  std::memcpy(&blocks, payload.data() + at, sizeof blocks);
  ASSERT_EQ(blocks, 1u);
  expect_sharded_snapshot_rejected(patch_u32(payload, at, 3), [](ckpt::Reader& r) {
    NetworkRig fresh;
    fresh.network.load_state(r);
  });
}

TEST(CheckpointFormat, TracerLaneCountMustBeOne) {
  ChromeTraceWriter sink;
  ChunkPathTracer tracer(sink, 1.0);
  const std::uint64_t serial = tracer.on_chunk_injected(0, 0, 1, 4096, 0);
  tracer.on_hop_enqueue(serial, 0, 0, 1, 4096, 0, 2, PortKind::LocalRow, 0, 0, 10);
  ckpt::Writer w;
  tracer.save_state(w);
  const std::string& payload = w.buffer();
  std::uint32_t lanes = 0;
  std::memcpy(&lanes, payload.data(), sizeof lanes);
  ASSERT_EQ(lanes, 1u);

  ChromeTraceWriter restored_sink;
  ChunkPathTracer restored(restored_sink, 1.0);
  ckpt::Reader ok(payload);
  restored.load_state(ok);
  EXPECT_EQ(restored.live_chunks(), 1u);

  const auto load_fresh = [](ckpt::Reader& r) {
    ChromeTraceWriter fresh_sink;
    ChunkPathTracer fresh(fresh_sink, 1.0);
    fresh.load_state(r);
  };
  expect_sharded_snapshot_rejected(patch_u32(payload, 0, 10), load_fresh);
  // Only the sharded tracer buffered hops: the trailing count must be 0.
  std::string buffered = payload;
  const std::uint64_t one = 1;
  std::memcpy(buffered.data() + buffered.size() - sizeof one, &one, sizeof one);
  buffered.append(128, '\0');  // room for one record, so the count is plausible
  expect_sharded_snapshot_rejected(buffered, load_fresh);
}

// ---------------------------------------------------------------------------
// Queued chunks: the loader rebuilds each port-queue entry from its chunk's
// current hop, so a snapshot whose queues disagree with the chunks' routes
// must be refused, not left to trip an assert (or misroute) later.
// ---------------------------------------------------------------------------

/// Byte offsets, in a network payload, of the fields the tests below patch.
struct NetworkPayloadMap {
  std::vector<std::size_t> hop_idx_at;  ///< per chunk id
  std::vector<int> route_len;           ///< per chunk id
  struct Entry {
    std::size_t at;  ///< offset of the queued chunk id
    ChunkId id;
  };
  std::vector<Entry> queued;  ///< every port-queue entry, in payload order
};

NetworkPayloadMap map_network_payload(const std::string& payload) {
  NetworkPayloadMap map;
  ckpt::Reader r(payload);
  const auto at = [&] { return payload.size() - r.remaining(); };
  const auto skip = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) r.u8();
  };
  r.u32();  // chunk arena count
  const std::uint32_t chunks = r.u32();
  for (std::uint32_t c = 0; c < chunks; ++c) {
    skip(4 + 4);  // msg, bytes
    map.hop_idx_at.push_back(at());
    skip(1 + 8);  // hop_idx, trace serial
    const int len = r.u8();
    map.route_len.push_back(len);
    skip(12 * static_cast<std::size_t>(len));
  }
  skip(4 * r.u64());                                    // chunk free list
  skip((4 + 4 + 8 * 3 + 8 + 3) * r.u64());  // message slots
  skip(4 * r.u64());                                    // message free list
  const std::uint64_t routers = r.u64();
  for (std::uint64_t router = 0; router < routers; ++router) {
    const std::int32_t ports = r.i32();
    for (std::int32_t p = 0; p < ports; ++p) {
      skip(8);  // busy_until
      const std::uint64_t qn = r.u64();
      for (std::uint64_t i = 0; i < qn; ++i) {
        const std::size_t entry_at = at();
        map.queued.push_back({entry_at, r.u32()});
      }
      skip(8);            // queued_bytes
      skip(8 * r.u64());  // credits
      skip(4 + 8 * 3);    // last VC, traffic, saturation
    }
  }
  return map;
}

/// A network snapshot with several chunks waiting on output ports: eight
/// sources converge on one destination.
std::string queued_network_payload() {
  NetworkRig rig;
  for (NodeId src = 0; src < 8; ++src) rig.network.send(src, 9, 16 * units::kKiB);
  rig.engine.run_until(3 * units::kMicrosecond);
  ckpt::Writer w;
  rig.network.save_state(w);
  return w.buffer();
}

void expect_network_rejected(const std::string& payload, const std::string& reason) {
  ckpt::Reader r(payload);
  NetworkRig fresh;
  try {
    fresh.network.load_state(r);
    ADD_FAILURE() << "snapshot accepted; expected: " << reason;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
  }
}

TEST(CheckpointFormat, QueuedChunkPastItsRouteEndIsRejected) {
  const std::string payload = queued_network_payload();
  const NetworkPayloadMap map = map_network_payload(payload);
  ASSERT_FALSE(map.queued.empty());
  const ChunkId id = map.queued.front().id;
  std::string patched = payload;
  patched[map.hop_idx_at[id]] = static_cast<char>(map.route_len[id]);
  expect_network_rejected(patched, "queued chunk has no current hop");
}

TEST(CheckpointFormat, QueuedChunkAtAnotherHopIsRejected) {
  const std::string payload = queued_network_payload();
  const NetworkPayloadMap map = map_network_payload(payload);
  ASSERT_FALSE(map.queued.empty());
  const ChunkId id = map.queued.front().id;
  ASSERT_GE(map.route_len[id], 2);
  // Every hop of a route leaves a different router, so any other valid hop
  // index names a port other than the one the chunk is queued on.
  const auto hop_idx = static_cast<int>(payload[map.hop_idx_at[id]]);
  std::string patched = payload;
  patched[map.hop_idx_at[id]] = static_cast<char>(hop_idx > 0 ? hop_idx - 1 : hop_idx + 1);
  expect_network_rejected(patched, "queued chunk's current hop is another port");
}

TEST(CheckpointFormat, ChunkQueuedTwiceIsRejected) {
  const std::string payload = queued_network_payload();
  const NetworkPayloadMap map = map_network_payload(payload);
  ASSERT_GE(map.queued.size(), 2u);
  const std::string patched = patch_u32(payload, map.queued[1].at, map.queued[0].id);
  expect_network_rejected(patched, "chunk queued twice");
}

// ---------------------------------------------------------------------------
// Sweep resume protocol (run_matrix checkpoint directory)
// ---------------------------------------------------------------------------

TEST(CheckpointSweep, ResultMarkerRoundTrip) {
  const ExperimentConfig config{PlacementKind::Contiguous, RoutingKind::Minimal};
  ExperimentOptions options;
  options.topo = TopoParams::tiny();
  options.seed = 3;
  const ExperimentResult result = run_experiment(ckpt_workload(), config, options);

  const std::string path = temp_path("result.done");
  ckpt::save_result(path, result);
  const ExperimentResult back = ckpt::load_result(path);
  expect_identical(result, back);
  EXPECT_EQ(back.health_report, result.health_report);
  EXPECT_EQ(back.hit_event_limit, result.hit_event_limit);
  std::remove(path.c_str());
}

TEST(CheckpointSweep, InterruptedSweepResumesToIdenticalResults) {
  const Workload workload = ckpt_workload();
  const std::vector<ExperimentConfig> configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal},
      {PlacementKind::RandomNode, RoutingKind::Adaptive}};
  ExperimentOptions base;
  base.topo = TopoParams::tiny();
  base.seed = 17;
  const std::vector<ExperimentResult> golden = run_matrix(workload, configs, base, 1);

  const std::string dir = temp_path("sweep-ckpt");
  fs::remove_all(dir);

  // Interrupted sweep: every config halts at its first snapshot past 15 us.
  ExperimentOptions interrupted = base;
  interrupted.checkpoint.interval = 3 * units::kMicrosecond;
  interrupted.checkpoint.path = dir;
  interrupted.checkpoint.stop_after = 9 * units::kMicrosecond;
  const std::vector<ExperimentResult> partial = run_matrix(workload, configs, interrupted, 1);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_TRUE(partial[i].stopped_at_checkpoint) << configs[i].name();
    EXPECT_TRUE(fs::exists(dir + "/" + configs[i].name() + ".ckpt"));
    EXPECT_FALSE(fs::exists(dir + "/" + configs[i].name() + ".done"));
  }

  // Resumed sweep: picks up from the per-config snapshots, finishes, and
  // leaves .done markers (the snapshots are superseded and removed).
  ExperimentOptions resumed = interrupted;
  resumed.checkpoint.resume = true;
  resumed.checkpoint.stop_after = 0;
  const std::vector<ExperimentResult> finished = run_matrix(workload, configs, resumed, 1);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_identical(golden[i], finished[i]);
    EXPECT_FALSE(fs::exists(dir + "/" + configs[i].name() + ".ckpt"));
    EXPECT_TRUE(fs::exists(dir + "/" + configs[i].name() + ".done"));
  }

  // A third sweep loads the .done markers without re-running anything.
  const std::vector<ExperimentResult> again = run_matrix(workload, configs, resumed, 2);
  for (std::size_t i = 0; i < configs.size(); ++i) expect_identical(golden[i], again[i]);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dfly
