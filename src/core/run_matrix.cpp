#include "core/run_matrix.hpp"

#include <atomic>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>

#include "ckpt/checkpoint.hpp"

namespace dfly {
namespace {

namespace fs = std::filesystem;

/// One config of a checkpointed sweep: a .done marker short-circuits to the
/// stored result (with resume set), a .ckpt resumes mid-run, and completion
/// writes the .done marker and retires the superseded .ckpt.
ExperimentResult run_sweep_config(const Workload& workload, const ExperimentConfig& config,
                                  const ExperimentOptions& sweep_options,
                                  const DragonflyTopology& topo) {
  const fs::path dir(sweep_options.checkpoint.path);
  const std::string name = config.name();
  const std::string ckpt_path = (dir / (name + ".ckpt")).string();
  const std::string done_path = (dir / (name + ".done")).string();
  if (sweep_options.checkpoint.resume && fs::exists(done_path))
    return ckpt::load_result(done_path);
  ExperimentOptions per_config = sweep_options;
  per_config.checkpoint.path = ckpt_path;
  ExperimentResult result = run_experiment(workload, config, per_config, &topo);
  if (!result.stopped_at_checkpoint) {
    ckpt::save_result(done_path, result);
    std::error_code ec;
    fs::remove(ckpt_path, ec);  // the marker supersedes the snapshot
  }
  return result;
}

}  // namespace

std::vector<ExperimentResult> run_matrix(const Workload& workload,
                                         const std::vector<ExperimentConfig>& configs,
                                         const ExperimentOptions& options, int threads) {
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  threads = std::min<int>(threads, static_cast<int>(configs.size()));

  const bool checkpointing = options.checkpoint.active();
  if (checkpointing) fs::create_directories(options.checkpoint.path);

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
        results[i] = checkpointing ? run_sweep_config(workload, configs[i], options, topo)
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
