#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "fault/health.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace dfly {

void TelemetryOptions::validate() const {
  if (!(sample_rate >= 0.0 && sample_rate <= 1.0))
    throw std::invalid_argument("telemetry: sample_rate must be in [0, 1]");
  if (snapshot_interval <= 0)
    throw std::invalid_argument("telemetry: snapshot_interval must be positive");
  if (enabled && out_dir.empty())
    throw std::invalid_argument("telemetry: out_dir must be set when telemetry is enabled");
}

void register_engine_counters(CounterRegistry& registry, const Engine& engine) {
  registry.add_source("engine.events_processed", MetricKind::Counter, [&engine] {
    return static_cast<std::int64_t>(engine.events_processed());
  });
  registry.add_source("engine.pending_events", MetricKind::Gauge,
                      [&engine] { return static_cast<std::int64_t>(engine.pending()); });
}

void register_network_counters(CounterRegistry& registry, const Network& network) {
  const auto counter = [&registry, &network](const char* name, Bytes (Network::*get)() const) {
    registry.add_source(name, MetricKind::Counter,
                        [&network, get] { return static_cast<std::int64_t>((network.*get)()); });
  };
  counter("net.bytes_injected", &Network::bytes_injected);
  counter("net.bytes_delivered", &Network::bytes_delivered);
  registry.add_source("net.chunks_forwarded", MetricKind::Counter, [&network] {
    return static_cast<std::int64_t>(network.chunks_forwarded());
  });
  registry.add_source("net.in_fabric_bytes", MetricKind::Gauge, [&network] {
    return static_cast<std::int64_t>(network.in_fabric_bytes());
  });
  registry.add_source("net.messages_in_flight", MetricKind::Gauge, [&network] {
    return static_cast<std::int64_t>(network.messages_in_flight());
  });
  const DragonflyTopology& topo = network.topology();
  registry.add_source("topo.disabled_global_links", MetricKind::Gauge, [&topo] {
    return static_cast<std::int64_t>(topo.disabled_global_links());
  });
}

void register_routing_counters(CounterRegistry& registry, const RoutingTelemetry& telemetry) {
  registry.add_source("routing.decisions", MetricKind::Counter, [&telemetry] {
    return static_cast<std::int64_t>(telemetry.decisions());
  });
  registry.add_source("routing.minimal_chosen", MetricKind::Counter, [&telemetry] {
    return static_cast<std::int64_t>(telemetry.minimal_total());
  });
  registry.add_source("routing.nonminimal_chosen", MetricKind::Counter, [&telemetry] {
    return static_cast<std::int64_t>(telemetry.nonminimal_total());
  });
}

void register_health_counters(CounterRegistry& registry, const HealthMonitor& monitor) {
  registry.add_source("health.ticks", MetricKind::Counter,
                      [&monitor] { return static_cast<std::int64_t>(monitor.ticks()); });
  registry.add_source("health.stalled", MetricKind::Gauge,
                      [&monitor] { return static_cast<std::int64_t>(monitor.stalled() ? 1 : 0); });
}

RunTelemetry::RunTelemetry(Engine& engine, Network& network, RoutingAlgorithm& routing,
                           const TelemetryOptions& options)
    : network_(network),
      routing_(routing),
      options_(options),
      tracer_(trace_, options.sample_rate),
      probe_(engine, registry_, options.snapshot_interval) {
  options_.validate();
  network_.set_tracer(&tracer_);
  routing_.set_telemetry(&routing_stats_);
  register_engine_counters(registry_, engine);
  register_network_counters(registry_, network);
  register_routing_counters(registry_, routing_stats_);
}

RunTelemetry::~RunTelemetry() {
  network_.set_tracer(nullptr);
  routing_.set_telemetry(nullptr);
}

namespace {

/// {"count": n, "sum": s, "max": m} summary of a sample vector.
void write_vector_summary(obs::JsonWriter& w, const std::string& key,
                          const std::vector<double>& samples) {
  StreamingStats stats;
  for (const double v : samples) stats.add(v);
  w.key(key).begin_object();
  w.field("count", static_cast<std::int64_t>(stats.count()));
  w.field("sum", stats.count() ? stats.sum() : 0.0);
  w.field("max", stats.count() ? stats.max() : 0.0);
  w.field("mean", stats.count() ? stats.mean() : 0.0);
  w.end_object();
}

bool write_metrics_json(const std::string& path, const RunTelemetry& telemetry,
                        const ExperimentResult& result) {
  std::ofstream f(path);
  if (!f) return false;
  const RunMetrics& m = result.metrics;
  obs::JsonWriter w(f, 2);
  w.begin_object();
  w.field("schema_version", 2);
  w.field("config", result.config);
  w.field("makespan_ms", m.makespan_ms);
  w.field("median_comm_ms", m.median_comm_ms());
  w.field("max_comm_ms", m.max_comm_ms());
  w.field("events", m.events);
  w.field("chunks", m.chunks);
  w.field("bytes_delivered", m.bytes_delivered);
  w.field("background_bytes", result.background_bytes);
  w.field("hit_event_limit", result.hit_event_limit);
  w.field("stalled", result.stalled);
  w.field("conservation_ok", result.conservation_ok);

  w.key("comm_time_ms").begin_object();
  w.field("count", static_cast<std::int64_t>(m.comm_time_ms.size()));
  for (const double p : {0.0, 25.0, 50.0, 75.0, 100.0})
    w.field("p" + std::to_string(static_cast<int>(p)),
            m.comm_time_ms.empty() ? 0.0 : percentile(m.comm_time_ms, p));
  w.end_object();

  write_vector_summary(w, "avg_hops", m.avg_hops);
  write_vector_summary(w, "local_traffic_mb", m.local_traffic_mb);
  write_vector_summary(w, "global_traffic_mb", m.global_traffic_mb);
  write_vector_summary(w, "local_saturation_ms", m.local_saturation_ms);
  write_vector_summary(w, "global_saturation_ms", m.global_saturation_ms);

  const ChunkPathTracer& tracer = telemetry.tracer();
  w.key("trace").begin_object();
  w.field("sample_rate", tracer.sample_rate());
  w.field("chunks_seen", tracer.chunks_seen());
  w.field("chunks_sampled", tracer.chunks_sampled());
  w.field("hops_recorded", tracer.hops_recorded());
  w.end_object();

  const RoutingTelemetry& routing = telemetry.routing_stats();
  w.key("routing").begin_object();
  w.field("decisions", routing.decisions());
  w.field("minimal_chosen", routing.minimal_total());
  w.field("nonminimal_chosen", routing.nonminimal_total());
  w.end_object();

  const SchedulerStats& s = m.scheduler;
  w.key("scheduler").begin_object();
  w.field("buckets", static_cast<std::int64_t>(s.buckets));
  w.field("bucket_width_ns", s.bucket_width);
  w.field("peak_pending", static_cast<std::int64_t>(s.peak_pending));
  w.field("resizes", s.resizes);
  w.field("overflow_promotions", s.overflow_promotions);
  w.end_object();

  w.end_object();
  f << '\n';
  return static_cast<bool>(f);
}

bool write_counters_jsonl(const std::string& path,
                          const std::vector<CounterSnapshot>& snapshots) {
  std::ofstream f(path);
  if (!f) return false;
  for (const CounterSnapshot& snap : snapshots) write_snapshot_jsonl(f, snap);
  return static_cast<bool>(f);
}

/// Per-(router, port) traffic / saturation / utilization rows — the heatmap
/// data behind the paper's per-channel CDF figures. Formatted straight into
/// a buffer flushed every 64 KiB; no cell needs CSV quoting.
bool write_heatmap_csv(const std::string& path, const Network& network, SimTime end) {
  const DragonflyTopology& topo = network.topology();
  const NetworkParams& params = network.params();
  std::ofstream f(path);
  if (!f) return false;
  std::string out = "router,port,kind,traffic_bytes,saturated_ns,utilization\n";
  const auto flush = [&f, &out] {
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
  };
  const auto put_int = [&out](std::int64_t v) {
    obs::append_int(out, v);
    out += ',';
  };
  for (RouterId r = 0; r < topo.params().total_routers(); ++r) {
    if (out.size() >= std::size_t{1} << 16) flush();
    for (int p = 0; p < topo.ports_per_router(); ++p) {
      const OutPort& port = network.port(r, p);
      const double capacity = params.bandwidth(port.kind) * static_cast<double>(end);
      const double util =
          capacity > 0 ? static_cast<double>(port.traffic) / capacity : 0.0;
      put_int(r);
      put_int(p);
      out += to_string(port.kind);
      out += ',';
      put_int(port.traffic);
      put_int(port.saturated_time);
      char buf[64];
      const int n = std::snprintf(buf, sizeof buf, "%.6f\n", util);
      out.append(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
    }
  }
  flush();
  return static_cast<bool>(f);
}

}  // namespace

std::string export_run_artifacts(const RunTelemetry& telemetry, const ExperimentResult& result,
                                 const Network& network, SimTime end) {
  namespace fs = std::filesystem;
  const TelemetryOptions& options = telemetry.options();
  const fs::path dir = fs::path(options.out_dir) / result.config;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    log_warn("telemetry: cannot create " + dir.string() + ": " + ec.message());
    return "";
  }

  bool ok = write_metrics_json((dir / "metrics.json").string(), telemetry, result);
  ok = write_counters_jsonl((dir / "counters.jsonl").string(), telemetry.snapshots()) && ok;
  ok = write_heatmap_csv((dir / "heatmap.csv").string(), network, end) && ok;
  if (options.chrome_trace) ok = telemetry.trace().write((dir / "trace.json").string()) && ok;
  if (!ok) {
    log_warn("telemetry: failed to write one or more artifacts under " + dir.string());
    return "";
  }
  return dir.string();
}

}  // namespace dfly
