// Checkpoint inspection and resume self-check.
//
// Usage:
//   dfly_ckpt info <snapshot.ckpt>
//     Print the snapshot's summary header (config, seed, simulated time,
//     event counts, subsystem lineup) without reconstructing the run.
//
//   dfly_ckpt selfcheck [out_dir]
//     Bit-exactness proof of the checkpoint layer on a small system, for one
//     minimal- and one adaptive-routing configuration: run each config
//     straight through (golden), run it again but stop at the first snapshot
//     past T/2 (emulating a killed job), resume from the snapshot, and
//     byte-compare every telemetry artifact (metrics.json, counters.jsonl,
//     heatmap.csv, trace.json) of the resumed run against the golden run.
//     Exits nonzero on any difference.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/experiment.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace dfly;

int cmd_info(const std::string& path) {
  const ckpt::CheckpointInfo info = ckpt::inspect_checkpoint(path);
  std::printf("snapshot         : %s\n", path.c_str());
  std::printf("config           : %s\n", info.config.c_str());
  std::printf("seed             : %llu\n", static_cast<unsigned long long>(info.seed));
  std::printf("simulated time   : %lld ns\n", static_cast<long long>(info.time));
  std::printf("events processed : %llu\n",
              static_cast<unsigned long long>(info.events_processed));
  std::printf("pending events   : %llu\n",
              static_cast<unsigned long long>(info.pending_events));
  std::printf("subsystems       : replay network%s%s%s\n",
              info.has_background ? " background" : "", info.has_monitor ? " health" : "",
              info.has_telemetry ? " telemetry" : "");
  return 0;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return "<unreadable: " + path + ">";
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

/// Byte-compares the four run artifacts between two telemetry directories.
bool artifacts_identical(const std::string& golden_dir, const std::string& resumed_dir) {
  bool ok = true;
  for (const char* name : {"metrics.json", "counters.jsonl", "heatmap.csv", "trace.json"}) {
    const std::string a = slurp(golden_dir + "/" + name);
    const std::string b = slurp(resumed_dir + "/" + name);
    if (a != b) {
      std::printf("  MISMATCH %-14s golden=%zu bytes, resumed=%zu bytes\n", name, a.size(),
                  b.size());
      ok = false;
    } else {
      std::printf("  ok       %-14s %zu bytes identical\n", name, a.size());
    }
  }
  return ok;
}

int cmd_selfcheck(const std::string& out_dir) {
  namespace fs = std::filesystem;
  fs::create_directories(out_dir);

  // Small system so the self-check runs in seconds: 3 groups of 2x4 routers,
  // 2 nodes each (48 nodes), 24 ranks exchanging 64 KiB around a ring.
  ExperimentOptions base;
  base.topo = TopoParams::tiny();
  base.seed = 7;
  base.telemetry.enabled = true;
  base.telemetry.sample_rate = 0.05;
  base.telemetry.snapshot_interval = 20 * units::kMicrosecond;
  const Workload workload{"ring",
                          make_ring_trace(/*ranks=*/24, 64 * units::kKiB, /*iterations=*/4)};

  bool all_ok = true;
  for (const ExperimentConfig config :
       {ExperimentConfig{PlacementKind::Contiguous, RoutingKind::Minimal},
        ExperimentConfig{PlacementKind::RandomNode, RoutingKind::Adaptive}}) {
    const std::string name = config.name();
    std::printf("[%s] golden straight-through run...\n", name.c_str());
    ExperimentOptions golden = base;
    golden.telemetry.out_dir = out_dir + "/golden";
    const ExperimentResult gold = run_experiment(workload, config, golden);
    const SimTime makespan = static_cast<SimTime>(gold.metrics.makespan_ms * 1e6);
    std::printf("[%s] makespan %.3f ms, %llu events\n", name.c_str(), gold.metrics.makespan_ms,
                static_cast<unsigned long long>(gold.metrics.events));

    // Interrupted run: snapshot every makespan/8, die at the first snapshot
    // past T/2.
    const std::string snapshot = out_dir + "/" + name + ".ckpt";
    ExperimentOptions interrupted = base;
    interrupted.telemetry.out_dir = out_dir + "/resumed";
    interrupted.checkpoint.interval = makespan / 8 > 0 ? makespan / 8 : 1;
    interrupted.checkpoint.path = snapshot;
    interrupted.checkpoint.stop_after = makespan / 2;
    std::printf("[%s] interrupted run (checkpoint every %lld ns, stop past %lld ns)...\n",
                name.c_str(), static_cast<long long>(interrupted.checkpoint.interval),
                static_cast<long long>(interrupted.checkpoint.stop_after));
    const ExperimentResult partial = run_experiment(workload, config, interrupted);
    if (!partial.stopped_at_checkpoint) {
      std::printf("[%s] FAIL: run completed before reaching the stop-after snapshot\n",
                  name.c_str());
      all_ok = false;
      continue;
    }
    const ckpt::CheckpointInfo info = ckpt::inspect_checkpoint(snapshot);
    std::printf("[%s] snapshot at %lld ns (%llu events processed, %llu pending)\n", name.c_str(),
                static_cast<long long>(info.time),
                static_cast<unsigned long long>(info.events_processed),
                static_cast<unsigned long long>(info.pending_events));

    // Resume and compare artifacts byte-for-byte.
    ExperimentOptions resumed = interrupted;
    resumed.checkpoint.resume = true;
    resumed.checkpoint.stop_after = 0;
    const ExperimentResult res = run_experiment(workload, config, resumed);
    std::printf("[%s] resumed to %.3f ms, %llu events; comparing artifacts:\n", name.c_str(),
                res.metrics.makespan_ms, static_cast<unsigned long long>(res.metrics.events));
    if (!artifacts_identical(out_dir + "/golden/" + name, out_dir + "/resumed/" + name))
      all_ok = false;
  }

  std::printf("selfcheck: %s\n", all_ok ? "PASS (resume is bit-exact)" : "FAIL");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "info" && argc == 3) return cmd_info(argv[2]);
    if (mode == "selfcheck") return cmd_selfcheck(argc > 2 ? argv[2] : "ckpt-selfcheck-out");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfly_ckpt: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: %s info <snapshot.ckpt> | selfcheck [out_dir]\n", argv[0]);
  return 2;
}
