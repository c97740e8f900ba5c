// Tests for the experiment configuration file parser/renderer.
#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace dfly {
namespace {

TEST(ConfigIo, EmptyConfigYieldsDefaults) {
  std::istringstream empty("");
  const ExperimentOptions options = parse_config(empty);
  EXPECT_EQ(options.topo.groups, 9);
  EXPECT_EQ(options.net.chunk_bytes, 2048);
  EXPECT_EQ(options.seed, 42u);
}

TEST(ConfigIo, ParsesAllSections) {
  std::istringstream is(R"(
# a comment
[topology]
groups = 3
rows = 2
cols = 4
nodes_per_router = 2
global_ports_per_router = 2
chassis_per_cabinet = 1

[network]
chunk_bytes = 1024
local_bandwidth_gib = 7.5   # inline comment
router_delay_ns = 0

[experiment]
seed = 99
msg_scale = 0.5
eager_threshold = 65536
)");
  const ExperimentOptions options = parse_config(is);
  EXPECT_EQ(options.topo.groups, 3);
  EXPECT_EQ(options.topo.cols, 4);
  EXPECT_EQ(options.net.chunk_bytes, 1024);
  EXPECT_DOUBLE_EQ(options.net.local_bandwidth_gib, 7.5);
  EXPECT_EQ(options.net.router_delay, 0);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_DOUBLE_EQ(options.msg_scale, 0.5);
  EXPECT_EQ(options.replay.eager_threshold, 65536);
}

TEST(ConfigIo, RoundTripThroughRender) {
  ExperimentOptions original;
  original.topo = TopoParams::tiny();
  original.net.chunk_bytes = 4096;
  original.net.global_latency = 1234;
  original.seed = 777;
  original.msg_scale = 1.5;
  original.replay.eager_threshold = 32768;

  std::istringstream is(render_config(original));
  const ExperimentOptions back = parse_config(is);
  EXPECT_EQ(back.topo.groups, original.topo.groups);
  EXPECT_EQ(back.topo.rows, original.topo.rows);
  EXPECT_EQ(back.net.chunk_bytes, original.net.chunk_bytes);
  EXPECT_EQ(back.net.global_latency, original.net.global_latency);
  EXPECT_EQ(back.seed, original.seed);
  EXPECT_DOUBLE_EQ(back.msg_scale, original.msg_scale);
  EXPECT_EQ(back.replay.eager_threshold, original.replay.eager_threshold);
}

TEST(ConfigIo, RejectsUnknownKey) {
  std::istringstream is("[topology]\nwarp_factor = 9\n");
  EXPECT_THROW(parse_config(is), std::runtime_error);
}

TEST(ConfigIo, RejectsKeyOutsideKnownSection) {
  std::istringstream is("groups = 9\n");  // no section
  EXPECT_THROW(parse_config(is), std::runtime_error);
}

TEST(ConfigIo, RejectsMalformedLines) {
  std::istringstream bad_section("[topology\ngroups = 9\n");
  EXPECT_THROW(parse_config(bad_section), std::runtime_error);
  std::istringstream no_equals("[topology]\ngroups 9\n");
  EXPECT_THROW(parse_config(no_equals), std::runtime_error);
  std::istringstream bad_int("[topology]\ngroups = nine\n");
  EXPECT_THROW(parse_config(bad_int), std::runtime_error);
  std::istringstream junk("[network]\nlocal_bandwidth_gib = 5.25x\n");
  EXPECT_THROW(parse_config(junk), std::runtime_error);
}

TEST(ConfigIo, ValidatesResultingTopology) {
  std::istringstream is("[topology]\ngroups = 1\n");
  EXPECT_THROW(parse_config(is), std::invalid_argument);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(load_config("/no/such/config.conf"), std::runtime_error);
}

TEST(ConfigIo, RejectsChunkPast32Bits) {
  // A 4 GiB chunk fits its (equally large) buffers, but chunk sizes are
  // 32-bit inside the network: the config must fail, not truncate.
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfly_config_chunk_past_32_bits.conf").string();
  {
    std::ofstream f(path);
    f << "[network]\nchunk_bytes = 4294967296\nterminal_vc_buffer = 4294967296\n"
         "local_vc_buffer = 4294967296\nglobal_vc_buffer = 4294967296\n";
  }
  EXPECT_THROW(load_config(path), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(ConfigIo, ParsesHealthKeys) {
  std::istringstream is(R"(
[health]
enabled = 0
interval_ns = 500000
stall_ticks = 17
)");
  const ExperimentOptions options = parse_config(is);
  EXPECT_FALSE(options.health.enabled);
  EXPECT_EQ(options.health.interval, 500000);
  EXPECT_EQ(options.health.stall_ticks, 17);
}

TEST(ConfigIo, RejectsIntegerValuesThatWouldNarrow) {
  // Regression: set_int blind-cast the parsed int64 into possibly-32-bit
  // members, so out-of-range values wrapped silently.
  const char* bad[] = {
      "[topology]\ngroups = 4294967305\n",            // wraps to 9 as int32
      "[topology]\nrows = -4294967294\n",             // wraps to 2 as int32
      "[health]\nstall_ticks = 8589934592\n",        // wraps to 0 as int32
      "[experiment]\nseed = -1\n",                    // negative into uint64
      "[experiment]\nmax_events = -5\n",              // negative into uint64
      "[health]\nenabled = 2\n",                      // bool takes only 0/1
  };
  for (const char* text : bad) {
    std::istringstream is(text);
    try {
      parse_config(is);
      FAIL() << "accepted narrowing value:\n" << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("config: value out of range"), std::string::npos)
          << "wrong error for:\n" << text << "\ngot: " << e.what();
    }
  }
}

TEST(ConfigIo, AcceptsFullRangeOfNarrowMembers) {
  std::istringstream is("[health]\nstall_ticks = 2147483647\nenabled = 1\n");
  const ExperimentOptions options = parse_config(is);
  EXPECT_EQ(options.health.stall_ticks, 2147483647);
  EXPECT_TRUE(options.health.enabled);
}

TEST(ConfigIo, ParsesTelemetryKeys) {
  std::istringstream is(R"(
[telemetry]
enabled = 1
sample_rate = 0.25
out_dir = /tmp/dfly-artifacts
chrome_trace = 0
snapshot_interval_ns = 250000
)");
  const ExperimentOptions options = parse_config(is);
  EXPECT_TRUE(options.telemetry.enabled);
  EXPECT_DOUBLE_EQ(options.telemetry.sample_rate, 0.25);
  EXPECT_EQ(options.telemetry.out_dir, "/tmp/dfly-artifacts");
  EXPECT_FALSE(options.telemetry.chrome_trace);
  EXPECT_EQ(options.telemetry.snapshot_interval, 250000);
}

TEST(ConfigIo, TelemetryRoundTripsThroughRender) {
  ExperimentOptions original;
  original.topo = TopoParams::tiny();
  original.telemetry.enabled = true;
  original.telemetry.sample_rate = 0.125;
  original.telemetry.out_dir = "artifacts/run-7";
  original.telemetry.chrome_trace = false;
  original.telemetry.snapshot_interval = 777000;

  std::istringstream is(render_config(original));
  const ExperimentOptions back = parse_config(is);
  EXPECT_EQ(back.telemetry.enabled, original.telemetry.enabled);
  EXPECT_DOUBLE_EQ(back.telemetry.sample_rate, original.telemetry.sample_rate);
  EXPECT_EQ(back.telemetry.out_dir, original.telemetry.out_dir);
  EXPECT_EQ(back.telemetry.chrome_trace, original.telemetry.chrome_trace);
  EXPECT_EQ(back.telemetry.snapshot_interval, original.telemetry.snapshot_interval);
}

TEST(ConfigIo, CheckpointRoundTripsThroughRender) {
  ExperimentOptions original;
  original.topo = TopoParams::tiny();
  original.checkpoint.path = "sweep-markers";
  original.checkpoint.resume = true;

  std::istringstream is(render_config(original));
  const ExperimentOptions back = parse_config(is);
  EXPECT_EQ(back.checkpoint.path, original.checkpoint.path);
  EXPECT_EQ(back.checkpoint.resume, original.checkpoint.resume);
  EXPECT_TRUE(back.checkpoint.active());
}

TEST(ConfigIo, RejectsRemovedMidRunCheckpointKeys) {
  // Sweeps resume per config from result markers; there are no mid-run
  // snapshots, so a config asking for them must fail, not run without them.
  const std::string rendered = render_config(ExperimentOptions{});
  const std::size_t begin = rendered.find("[checkpoint]");
  ASSERT_NE(begin, std::string::npos);
  const std::string section = rendered.substr(begin, rendered.find("\n[", begin) - begin);
  EXPECT_EQ(section, "[checkpoint]\nresume = 0\n");
  for (const char* text : {"[checkpoint]\ninterval_ns = 1000000\n",
                           "[checkpoint]\nstop_after_ns = 9000000\n"}) {
    std::istringstream is(text);
    try {
      parse_config(is);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos) << e.what();
    }
  }
}

TEST(ConfigIo, RejectsOutOfRangeTelemetryValues) {
  for (const char* text : {
           "[telemetry]\nsample_rate = 1.5\n",          // > 1
           "[telemetry]\nsample_rate = -0.1\n",         // < 0
           "[telemetry]\nsnapshot_interval_ns = 0\n",   // non-positive period
           "[telemetry]\nenabled = 1\nout_dir =\n",     // enabled without a dir
       }) {
    std::istringstream is(text);
    EXPECT_THROW(parse_config(is), std::invalid_argument) << text;
  }
}

TEST(ConfigIo, RejectsRemovedFarmAndHeartbeatKeys) {
  // run_matrix has one execution mode and the network never drops a chunk; a
  // config still asking for the removed process farm, its heartbeats, runtime
  // link faults or NIC retransmission must fail loudly, not run differently.
  const std::string rendered = render_config(ExperimentOptions{});
  EXPECT_EQ(rendered.find("[farm]"), std::string::npos);
  EXPECT_EQ(rendered.find("heartbeat"), std::string::npos);
  EXPECT_EQ(rendered.find("[faults]"), std::string::npos);
  EXPECT_EQ(rendered.find("retransmit"), std::string::npos);
  for (const char* text : {
           "[farm]\nenabled = 1\n",
           "[farm]\nworkers = 4\n",
           "[prof]\nheartbeat_period_ms = 1000\n",
           "[faults]\nlink = down global 0 1 2 40000\n",
           "[network]\nretransmit_timeout_ns = 5000\n",
           "[network]\nretransmit_max_backoff = 3\n",
       }) {
    std::istringstream is(text);
    try {
      parse_config(is);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos) << e.what();
    }
  }
}

// The engine has one (serial) execution mode. The [engine] threads key that
// selected the removed sharded engine is no longer rendered, and any value
// for it fails to load instead of silently running serially.

TEST(ParallelEquivalence, EngineThreadsRoundTripsThroughConfig) {
  const std::string text = render_config(ExperimentOptions{});
  EXPECT_EQ(text.find("[engine]"), std::string::npos);
  std::istringstream is(text);
  const ExperimentOptions parsed = parse_config(is, ExperimentOptions{});
  EXPECT_EQ(render_config(parsed), text);
  for (const char* stale : {"[engine]\nthreads = 0\n", "[engine]\nthreads = 4\n"}) {
    std::istringstream in(stale);
    try {
      parse_config(in, ExperimentOptions{});
      ADD_FAILURE() << "accepted: " << stale;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos) << e.what();
    }
  }
}

TEST(ParallelEquivalence, NegativeEngineThreadsIsRejected) {
  std::istringstream is("[engine]\nthreads = -3\n");
  EXPECT_THROW(parse_config(is, ExperimentOptions{}), std::runtime_error);
}

TEST(ConfigIo, DefaultsArePreservedForUnsetKeys) {
  ExperimentOptions defaults;
  defaults.msg_scale = 0.125;
  std::istringstream is("[experiment]\nseed = 5\n");
  const ExperimentOptions options = parse_config(is, defaults);
  EXPECT_EQ(options.seed, 5u);
  EXPECT_DOUBLE_EQ(options.msg_scale, 0.125);
}

}  // namespace
}  // namespace dfly
