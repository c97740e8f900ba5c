// Command-line simulation driver: run any paper workload under any
// configuration without writing code.
//
// Usage:
//   dfly_sim [--app=cr|fb|amg|ring|alltoall] [--placement=cont|cab|chas|rotr|rand]
//            [--routing=min|adp|val|adpg] [--scale=X] [--seed=N]
//            [--config=FILE] [--dump-config] [--bg=uniform|bursty]
//            [--csv=PREFIX] [--all-configs]
//
// Examples:
//   dfly_sim --app=amg --all-configs          # Fig. 3 AMG column
//   dfly_sim --app=cr --placement=rand --routing=min --scale=0.5
//   dfly_sim --dump-config > theta.conf       # reference config file
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>

#include "core/config_io.hpp"
#include "core/run_matrix.hpp"
#include "metrics/report.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace {

using namespace dfly;

std::optional<std::string> arg_value(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return std::string(argv[i] + prefix.size());
  }
  return std::nullopt;
}

bool has_flag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i)
    if (flag == argv[i]) return true;
  return false;
}

// Parses the whole flag value: "--scale=0.25x" is an error, not 0.25.
template <typename T>
T parse_whole(const char* name, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end)
    throw std::runtime_error(std::string("bad --") + name + " value '" + text + "'");
  return value;
}

Workload make_app(const std::string& app, double scale) {
  if (app == "cr") {
    CrParams p;
    p.iterations = 1;
    p.scale = scale;
    return make_crystal_router(p);
  }
  if (app == "fb") {
    FbParams p;
    p.iterations = 1;
    p.scale = scale;
    return make_fill_boundary(p);
  }
  if (app == "amg") {
    AmgParams p;
    p.scale = scale;
    return make_amg(p);
  }
  if (app == "ring") {
    Trace t = make_ring_trace(512, 256 * units::kKiB, 2);
    if (scale != 1.0) t.scale_message_sizes(scale);
    return Workload{"ring", std::move(t)};
  }
  if (app == "alltoall") {
    Trace t = make_all_to_all_trace(128, 32 * units::kKiB);
    if (scale != 1.0) t.scale_message_sizes(scale);
    return Workload{"alltoall", std::move(t)};
  }
  throw std::runtime_error("unknown app: " + app + " (want cr|fb|amg|ring|alltoall)");
}

PlacementKind parse_placement(const std::string& s) {
  for (const PlacementKind k : kAllPlacements)
    if (s == to_string(k)) return k;
  throw std::runtime_error("unknown placement: " + s + " (want cont|cab|chas|rotr|rand)");
}

RoutingKind parse_routing(const std::string& s) {
  for (const RoutingKind k : {RoutingKind::Minimal, RoutingKind::Adaptive, RoutingKind::Valiant,
                              RoutingKind::AdaptiveGlobal})
    if (s == to_string(k)) return k;
  throw std::runtime_error("unknown routing: " + s + " (want min|adp|val|adpg)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfly;
  try {
    ExperimentOptions options;
    if (const auto config = arg_value(argc, argv, "config")) options = load_config(*config);
    if (has_flag(argc, argv, "dump-config")) {
      std::cout << render_config(options);
      return 0;
    }
    if (const auto seed = arg_value(argc, argv, "seed"))
      options.seed = parse_whole<std::uint64_t>("seed", *seed);

    const auto scale_arg = arg_value(argc, argv, "scale");
    const double scale = scale_arg ? parse_whole<double>("scale", *scale_arg) : 0.25;
    const Workload workload = make_app(arg_value(argc, argv, "app").value_or("amg"), scale);

    if (const auto bg = arg_value(argc, argv, "bg")) {
      BackgroundSpec spec;
      if (*bg == "uniform") {
        spec.pattern = BackgroundSpec::Pattern::UniformRandom;
        spec.message_bytes = 16 * units::kKB;
        spec.interval = 2 * units::kMicrosecond;
      } else if (*bg == "bursty") {
        spec.pattern = BackgroundSpec::Pattern::Bursty;
        spec.message_bytes = 100 * units::kKB;
        spec.burst_fanout = 8;
        spec.interval = 100 * units::kMicrosecond;
      } else {
        throw std::runtime_error("unknown bg pattern: " + *bg);
      }
      options.background = spec;
    }

    std::vector<ExperimentConfig> configs;
    if (has_flag(argc, argv, "all-configs")) {
      configs = table1_configs();
    } else {
      configs.push_back(ExperimentConfig{
          parse_placement(arg_value(argc, argv, "placement").value_or("cont")),
          parse_routing(arg_value(argc, argv, "routing").value_or("min"))});
    }

    std::printf("app=%s ranks=%d scale=%.3g seed=%llu topo={%s}\n", workload.name.c_str(),
                workload.trace.ranks(), scale, static_cast<unsigned long long>(options.seed),
                options.topo.describe().c_str());

    const auto results = run_matrix(workload, configs, options);
    std::vector<NamedMetrics> named;
    for (const auto& r : results) named.push_back({r.config, r.metrics});
    comm_time_box_table(workload.name + ": per-rank communication time (ms)", named)
        .print_markdown(std::cout);
    summary_table(workload.name + ": run summary", named).print_markdown(std::cout);

    if (const auto csv = arg_value(argc, argv, "csv")) {
      const Table t = comm_time_box_table("comm_time", named);
      const std::string path = *csv + "_comm_time.csv";
      if (t.write_csv(path)) std::printf("wrote %s\n", path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfly_sim: %s\n", e.what());
    return 1;
  }
}
