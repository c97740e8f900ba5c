#include "core/run_matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

namespace dfly {
namespace {

/// Routers a minimal path between two routers visits, from their
/// coordinates: 1 on one router; 2 within a row or column, 3 otherwise in one
/// group (via an intersection router); 4 between groups (both end routers and
/// both ends of the global link, which the route's draw picks).
std::uint64_t minimal_path_routers(RouterId a, const RouterCoord& ca, RouterId b,
                                   const RouterCoord& cb) {
  if (a == b) return 1;
  if (ca.group != cb.group) return 4;
  return 1 + static_cast<std::uint64_t>(ca.row != cb.row) +
         static_cast<std::uint64_t>(ca.col != cb.col);
}

/// Minimal-path selections one route decision makes: a minimal route is
/// one, Valiant two (source to intermediate to destination), and UGAL builds
/// two minimal candidates and two Valiant detours, six in all.
std::uint64_t minimal_selections(RoutingKind routing) {
  switch (routing) {
    case RoutingKind::Minimal: return 1;
    case RoutingKind::Valiant: return 2;
    case RoutingKind::Adaptive:
    case RoutingKind::AdaptiveGlobal: return 6;
  }
  return 1;
}

/// One Send/Isend op of a trace: its two ranks and its chunk count.
struct ChunkedSend {
  std::int32_t rank;
  std::int32_t peer;
  std::uint64_t chunks;
};

/// The trace's Send/Isend ops, chunked as the job's options chunk them.
std::vector<ChunkedSend> chunked_sends(const SweepJob& job) {
  const Trace& trace = job.workload->trace;
  const double chunk_bytes = static_cast<double>(job.options.net.chunk_bytes);
  std::vector<ChunkedSend> sends;
  for (int rank = 0; rank < trace.ranks(); ++rank) {
    for (const TraceOp& op : trace.rank(rank)) {
      if (op.kind != OpKind::Send && op.kind != OpKind::Isend) continue;
      const double chunks =
          std::ceil(static_cast<double>(op.bytes) * job.options.msg_scale / chunk_bytes);
      sends.push_back({rank, op.peer, static_cast<std::uint64_t>(std::max(1.0, chunks))});
    }
  }
  return sends;
}

/// The routing-independent part of a job's predicted work: sums over its
/// sends of their chunks, and of chunks x routers on a minimal path between
/// the two ranks' routers under the job's placement.
struct TraceWork {
  std::uint64_t chunks = 0;
  std::uint64_t chunk_routers = 0;
};

TraceWork trace_work(const SweepJob& job, std::span<const ChunkedSend> sends) {
  const Placement placement = experiment_placement(*job.workload, job.config, job.options);
  const Coordinates coords(job.options.topo);
  std::vector<RouterId> router(static_cast<std::size_t>(placement.ranks()));
  std::vector<RouterCoord> coord(router.size());
  for (int rank = 0; rank < placement.ranks(); ++rank) {
    router[rank] = coords.router_of_node(placement.node_of_rank(rank));
    coord[rank] = coords.coord(router[rank]);
  }
  TraceWork work;
  for (const ChunkedSend& send : sends) {
    work.chunks += send.chunks;
    work.chunk_routers += send.chunks * minimal_path_routers(router[send.rank], coord[send.rank],
                                                             router[send.peer], coord[send.peer]);
  }
  return work;
}

/// True when two jobs chunk the same trace the same way.
bool same_sends(const SweepJob& a, const SweepJob& b) {
  return a.workload == b.workload && a.options.msg_scale == b.options.msg_scale &&
         a.options.net.chunk_bytes == b.options.net.chunk_bytes;
}

/// True when two jobs also place the trace the same way, so their TraceWork
/// is the same.
bool same_trace_work(const SweepJob& a, const SweepJob& b) {
  return same_sends(a, b) && a.config.placement == b.config.placement &&
         a.options.seed == b.options.seed && a.options.topo == b.options.topo;
}

PredictedWork predicted_work(const SweepJob& job, const TraceWork& work) {
  return {job.options.background.has_value(),
          work.chunk_routers + minimal_selections(job.config.routing) * work.chunks};
}

}  // namespace

PredictedWork predicted_work(const SweepJob& job) {
  return predicted_work(job, trace_work(job, chunked_sends(job)));
}

std::vector<std::size_t> dispatch_order(std::span<const SweepJob> jobs) {
  // One pass over each trace, and one placement per distinct one: the min
  // and adp configs of a placement share their TraceWork.
  std::vector<std::vector<ChunkedSend>> sends;
  std::vector<std::size_t> sends_of(jobs.size());
  std::vector<TraceWork> work(jobs.size());
  std::vector<PredictedWork> keys;
  keys.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // The first job up to i that `same` matches with job i.
    const auto first_like = [&](bool (*same)(const SweepJob&, const SweepJob&)) {
      std::size_t j = 0;
      while (j < i && !same(jobs[j], jobs[i])) ++j;
      return j;
    };
    if (const std::size_t j = first_like(same_sends); j < i) {
      sends_of[i] = sends_of[j];
    } else {
      sends_of[i] = sends.size();
      sends.push_back(chunked_sends(jobs[i]));
    }
    const std::size_t j = first_like(same_trace_work);
    work[i] = j < i ? work[j] : trace_work(jobs[i], sends[sends_of[i]]);
    keys.push_back(predicted_work(jobs[i], work[i]));
  }
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&keys](std::size_t a, std::size_t b) { return keys[a] > keys[b]; });
  return order;
}

std::vector<ExperimentResult> run_jobs(std::span<const SweepJob> jobs, int threads) {
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  threads = std::min<int>(threads, static_cast<int>(jobs.size()));

  // Read-only once the workers start: one topology per distinct TopoParams
  // (a deque, so the pointers stay valid).
  std::deque<DragonflyTopology> topologies;
  std::vector<const DragonflyTopology*> topo(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ExperimentOptions& options = jobs[i].options;
    const auto shared = std::find_if(topologies.begin(), topologies.end(),
                                     [&](const DragonflyTopology& t) {
                                       return t.params() == options.topo;
                                     });
    topo[i] = shared != topologies.end() ? &*shared : &topologies.emplace_back(options.topo);
  }

  const std::vector<std::size_t> order = dispatch_order(jobs);
  std::vector<ExperimentResult> results(jobs.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < order.size(); k = next.fetch_add(1)) {
      const std::size_t i = order[k];
      try {
        results[i] = run_experiment(*jobs[i].workload, jobs[i].config, jobs[i].options, topo[i]);
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

std::vector<ExperimentResult> run_matrix(const Workload& workload,
                                         const std::vector<ExperimentConfig>& configs,
                                         const ExperimentOptions& options, int threads) {
  std::vector<SweepJob> jobs;
  jobs.reserve(configs.size());
  for (const ExperimentConfig& config : configs) jobs.push_back({&workload, config, options});
  return run_jobs(jobs, threads);
}

}  // namespace dfly
