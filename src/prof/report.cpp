#include "prof/report.hpp"

#include <filesystem>
#include <fstream>
#include <string>

#include "obs/json.hpp"
#include "prof/profiler.hpp"
#include "util/log.hpp"

namespace dfly::prof {

namespace {

void write_histogram(obs::JsonWriter& w, const std::string& key, const WallHistogram& h) {
  w.key(key).begin_object();
  w.field("count", h.count());
  w.field("min_ns", h.min());
  w.field("max_ns", h.max());
  w.field("mean_ns", h.mean());
  w.field("sum_ns", h.sum());
  w.field("sub_bucket_bits", h.sub_bucket_bits());
  w.key("percentiles").begin_object();
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    std::string label = std::to_string(p);
    label.erase(label.find_last_not_of('0') + 1);
    if (!label.empty() && label.back() == '.') label.pop_back();
    w.field("p" + label, h.percentile(p));
  }
  w.end_object();
  w.end_object();
}

void write_rates(obs::JsonWriter& w, const std::string& key,
                 const ThroughputTracker::Rates& rates) {
  w.key(key).begin_object();
  w.field("events_per_sec", rates.events_per_sec);
  w.field("chunks_per_sec", rates.chunks_per_sec);
  w.field("sim_per_wall", rates.sim_per_wall);
  w.end_object();
}

}  // namespace

void write_prof_report(std::ostream& os, const Profiler& profiler, const std::string& config) {
  obs::JsonWriter w(os, 2);
  w.begin_object();
  w.field("schema_version", kProfSchemaVersion);
  w.field("config", config);
  w.field("wall_ns", profiler.run_wall_ns());

  w.field("events", profiler.events());
  w.field("stride", Profiler::kStride);
  w.field("clock_read_ns", profiler.clock_read_ns());
  w.field("loop_ns", profiler.loop_ns());
  w.field("timed_ns", profiler.timed_ns());

  w.key("layers").begin_object();
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    w.key(to_string(layer)).begin_object();
    w.field("est_ns", profiler.layer_est_ns(layer));
    w.field("sampled", profiler.layer_sampled(layer));
    w.end_object();
  }
  w.end_object();

  w.key("scopes").begin_object();
  for (int i = 0; i < static_cast<int>(Subsystem::kCount); ++i) {
    const auto s = static_cast<Subsystem>(i);
    w.key(to_string(s)).begin_object();
    w.field("ns", profiler.subsystem_ns(s));
    w.field("calls", profiler.subsystem_calls(s));
    w.end_object();
  }
  w.end_object();

  w.key("histograms").begin_object();
  write_histogram(w, "dispatch_ns", profiler.dispatch_histogram());
  w.end_object();

  const ThroughputTracker& t = profiler.throughput();
  w.key("throughput").begin_object();
  w.field("samples", t.samples());
  w.field("wall_ns", t.started() ? t.wall_ns() : std::int64_t{0});
  write_rates(w, "cumulative", t.cumulative());
  w.end_object();

  w.end_object();
  os << '\n';
}

bool write_prof_json(const std::string& path, const Profiler& profiler,
                     const std::string& config) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  if (ec) {
    log_warn("prof: cannot create " + parent.string() + ": " + ec.message());
    return false;
  }
  std::ofstream f(path);
  if (!f) {
    log_warn("prof: cannot write " + path);
    return false;
  }
  write_prof_report(f, profiler, config);
  if (!f) {
    log_warn("prof: write failed: " + path);
    return false;
  }
  return true;
}

}  // namespace dfly::prof
