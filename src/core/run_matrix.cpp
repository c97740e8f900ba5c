#include "core/run_matrix.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/config_io.hpp"
#include "core/result_io.hpp"
#include "trace/trace_io.hpp"
#include "util/fnv1a.hpp"

namespace dfly {
namespace {

namespace fs = std::filesystem;

/// Length-prefixed, so adjacent fields cannot run into each other.
void add_field(Fnv1a& h, const std::string& bytes) {
  h.add(bytes.size());
  h.add_bytes(bytes);
}

/// The hash of everything a sweep's results depend on apart from the config:
/// the workload's trace bytes, every option (the [checkpoint] section left
/// out, so moving or resuming a sweep keeps its markers) and the background
/// spec or its absence.
Fnv1a sweep_fingerprint(const Workload& workload, const ExperimentOptions& options) {
  Fnv1a h;
  std::ostringstream trace;
  write_trace(workload.trace, trace);
  add_field(h, trace.str());
  ExperimentOptions rendered = options;
  rendered.checkpoint = {};
  add_field(h, render_config(rendered));
  h.add_byte(options.background.has_value());
  if (options.background) {
    const BackgroundSpec& bg = *options.background;
    h.add(static_cast<std::uint64_t>(bg.pattern));
    h.add(static_cast<std::uint64_t>(bg.message_bytes));
    h.add(static_cast<std::uint64_t>(bg.interval));
    h.add(static_cast<std::uint64_t>(bg.burst_fanout));
    h.add(static_cast<std::uint64_t>(bg.start));
  }
  return h;
}

/// `<dir>/<config>.<16 hex digits>.done`: the digits hash the sweep
/// fingerprint and the config name, so a marker is only ever loaded by the
/// run it records.
std::string marker_path(const ExperimentOptions& options, Fnv1a fingerprint,
                        const std::string& config) {
  add_field(fingerprint, config);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(fingerprint.h));
  return (fs::path(options.checkpoint.path) / (config + "." + hex + ".done")).string();
}

/// One config of a sweep with markers: with resume set, an existing marker
/// short-circuits to the stored result; otherwise the config runs and leaves
/// its marker.
ExperimentResult run_marked_config(const Workload& workload, const ExperimentConfig& config,
                                   const ExperimentOptions& options, const Fnv1a& fingerprint,
                                   const DragonflyTopology& topo) {
  const std::string done_path = marker_path(options, fingerprint, config.name());
  if (options.checkpoint.resume && fs::exists(done_path)) return result_io::load_result(done_path);
  ExperimentResult result = run_experiment(workload, config, options, &topo);
  result_io::save_result(done_path, result);
  return result;
}

}  // namespace

std::vector<ExperimentResult> run_matrix(const Workload& workload,
                                         const std::vector<ExperimentConfig>& configs,
                                         const ExperimentOptions& options, int threads) {
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  threads = std::min<int>(threads, static_cast<int>(configs.size()));

  const bool marking = options.checkpoint.active();
  Fnv1a fingerprint;
  if (marking) {
    fs::create_directories(options.checkpoint.path);
    fingerprint = sweep_fingerprint(workload, options);
  }

  const DragonflyTopology topo(options.topo);
  std::vector<ExperimentResult> results(configs.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= configs.size()) return;
      try {
        results[i] = marking ? run_marked_config(workload, configs[i], options, fingerprint, topo)
                             : run_experiment(workload, configs[i], options, &topo);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace dfly
