#include "core/config_io.hpp"

#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace dfly {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::int64_t parse_int(const std::string& value, const std::string& key) {
  std::size_t pos = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(value, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error("config: bad integer for " + key + ": '" + value + "'");
  }
  if (pos != value.size())
    throw std::runtime_error("config: trailing junk in " + key + ": '" + value + "'");
  return v;
}

double parse_double(const std::string& value, const std::string& key) {
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(value, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error("config: bad number for " + key + ": '" + value + "'");
  }
  if (pos != value.size())
    throw std::runtime_error("config: trailing junk in " + key + ": '" + value + "'");
  return v;
}

using Setter = std::function<void(ExperimentOptions&, const std::string&, const std::string&)>;

const std::map<std::string, Setter>& setters() {
  auto set_int = [](auto member) {
    return Setter([member](ExperimentOptions& o, const std::string& k, const std::string& v) {
      using T = std::remove_reference_t<decltype(std::invoke(member, o))>;
      const std::int64_t raw = parse_int(v, k);
      // Refuse values the member's type cannot hold instead of wrapping
      // silently on the narrowing cast.
      bool fits;
      if constexpr (std::is_same_v<T, bool>)
        fits = raw == 0 || raw == 1;
      else
        fits = std::in_range<T>(raw);
      if (!fits)
        throw std::runtime_error("config: value out of range for " + k + ": '" + v + "'");
      std::invoke(member, o) = static_cast<T>(raw);
    });
  };
  auto set_double = [](auto member) {
    return Setter([member](ExperimentOptions& o, const std::string& k, const std::string& v) {
      std::invoke(member, o) = parse_double(v, k);
    });
  };
  static const std::map<std::string, Setter> map = {
      {"topology.groups", set_int([](ExperimentOptions& o) -> int& { return o.topo.groups; })},
      {"topology.rows", set_int([](ExperimentOptions& o) -> int& { return o.topo.rows; })},
      {"topology.cols", set_int([](ExperimentOptions& o) -> int& { return o.topo.cols; })},
      {"topology.nodes_per_router",
       set_int([](ExperimentOptions& o) -> int& { return o.topo.nodes_per_router; })},
      {"topology.global_ports_per_router",
       set_int([](ExperimentOptions& o) -> int& { return o.topo.global_ports_per_router; })},
      {"topology.chassis_per_cabinet",
       set_int([](ExperimentOptions& o) -> int& { return o.topo.chassis_per_cabinet; })},
      {"network.chunk_bytes",
       set_int([](ExperimentOptions& o) -> Bytes& { return o.net.chunk_bytes; })},
      {"network.terminal_bandwidth_gib",
       set_double([](ExperimentOptions& o) -> double& { return o.net.terminal_bandwidth_gib; })},
      {"network.local_bandwidth_gib",
       set_double([](ExperimentOptions& o) -> double& { return o.net.local_bandwidth_gib; })},
      {"network.global_bandwidth_gib",
       set_double([](ExperimentOptions& o) -> double& { return o.net.global_bandwidth_gib; })},
      {"network.terminal_latency_ns",
       set_int([](ExperimentOptions& o) -> SimTime& { return o.net.terminal_latency; })},
      {"network.local_latency_ns",
       set_int([](ExperimentOptions& o) -> SimTime& { return o.net.local_latency; })},
      {"network.global_latency_ns",
       set_int([](ExperimentOptions& o) -> SimTime& { return o.net.global_latency; })},
      {"network.router_delay_ns",
       set_int([](ExperimentOptions& o) -> SimTime& { return o.net.router_delay; })},
      {"network.terminal_vc_buffer",
       set_int([](ExperimentOptions& o) -> Bytes& { return o.net.terminal_vc_buffer; })},
      {"network.local_vc_buffer",
       set_int([](ExperimentOptions& o) -> Bytes& { return o.net.local_vc_buffer; })},
      {"network.global_vc_buffer",
       set_int([](ExperimentOptions& o) -> Bytes& { return o.net.global_vc_buffer; })},
      {"health.enabled",
       set_int([](ExperimentOptions& o) -> bool& { return o.health.enabled; })},
      {"health.interval_ns",
       set_int([](ExperimentOptions& o) -> SimTime& { return o.health.interval; })},
      {"health.stall_ticks",
       set_int([](ExperimentOptions& o) -> int& { return o.health.stall_ticks; })},
      {"telemetry.enabled",
       set_int([](ExperimentOptions& o) -> bool& { return o.telemetry.enabled; })},
      {"telemetry.sample_rate",
       set_double([](ExperimentOptions& o) -> double& { return o.telemetry.sample_rate; })},
      {"telemetry.out_dir",
       Setter([](ExperimentOptions& o, const std::string&, const std::string& v) {
         o.telemetry.out_dir = v;
       })},
      {"telemetry.chrome_trace",
       set_int([](ExperimentOptions& o) -> bool& { return o.telemetry.chrome_trace; })},
      {"telemetry.snapshot_interval_ns",
       set_int([](ExperimentOptions& o) -> SimTime& { return o.telemetry.snapshot_interval; })},
      {"prof.enabled",
       set_int([](ExperimentOptions& o) -> bool& { return o.prof.enabled; })},
      {"checkpoint.path",
       Setter([](ExperimentOptions& o, const std::string&, const std::string& v) {
         o.checkpoint.path = v;
       })},
      {"checkpoint.resume",
       set_int([](ExperimentOptions& o) -> bool& { return o.checkpoint.resume; })},
      {"experiment.seed",
       set_int([](ExperimentOptions& o) -> std::uint64_t& { return o.seed; })},
      {"experiment.msg_scale",
       set_double([](ExperimentOptions& o) -> double& { return o.msg_scale; })},
      {"experiment.max_events",
       set_int([](ExperimentOptions& o) -> std::uint64_t& { return o.max_events; })},
      {"experiment.eager_threshold",
       set_int([](ExperimentOptions& o) -> Bytes& { return o.replay.eager_threshold; })},
      {"experiment.control_bytes",
       set_int([](ExperimentOptions& o) -> Bytes& { return o.replay.control_bytes; })},
  };
  return map;
}

}  // namespace

ExperimentOptions parse_config(std::istream& is, ExperimentOptions defaults) {
  ExperimentOptions options = defaults;
  std::string line;
  std::string section;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']')
        throw std::runtime_error("config: malformed section at line " + std::to_string(line_no));
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("config: expected key = value at line " + std::to_string(line_no));
    const std::string key = section + "." + trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    const auto it = setters().find(key);
    if (it == setters().end())
      throw std::runtime_error("config: unknown key '" + key + "' at line " +
                               std::to_string(line_no));
    it->second(options, key, value);
  }
  options.topo.validate();
  options.net.validate();
  options.telemetry.validate();
  return options;
}

ExperimentOptions load_config(const std::string& path, ExperimentOptions defaults) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("config: cannot open " + path);
  return parse_config(f, defaults);
}

std::string render_config(const ExperimentOptions& o) {
  std::ostringstream os;
  os << "# dragonfly-tradeoff experiment configuration\n";
  os << "[topology]\n";
  os << "groups = " << o.topo.groups << "\n";
  os << "rows = " << o.topo.rows << "\n";
  os << "cols = " << o.topo.cols << "\n";
  os << "nodes_per_router = " << o.topo.nodes_per_router << "\n";
  os << "global_ports_per_router = " << o.topo.global_ports_per_router << "\n";
  os << "chassis_per_cabinet = " << o.topo.chassis_per_cabinet << "\n";
  os << "\n[network]\n";
  os << "chunk_bytes = " << o.net.chunk_bytes << "\n";
  os << "terminal_bandwidth_gib = " << o.net.terminal_bandwidth_gib << "\n";
  os << "local_bandwidth_gib = " << o.net.local_bandwidth_gib << "\n";
  os << "global_bandwidth_gib = " << o.net.global_bandwidth_gib << "\n";
  os << "terminal_latency_ns = " << o.net.terminal_latency << "\n";
  os << "local_latency_ns = " << o.net.local_latency << "\n";
  os << "global_latency_ns = " << o.net.global_latency << "\n";
  os << "router_delay_ns = " << o.net.router_delay << "\n";
  os << "terminal_vc_buffer = " << o.net.terminal_vc_buffer << "\n";
  os << "local_vc_buffer = " << o.net.local_vc_buffer << "\n";
  os << "global_vc_buffer = " << o.net.global_vc_buffer << "\n";
  os << "\n[health]\n";
  os << "enabled = " << (o.health.enabled ? 1 : 0) << "\n";
  os << "interval_ns = " << o.health.interval << "\n";
  os << "stall_ticks = " << o.health.stall_ticks << "\n";
  os << "\n[telemetry]\n";
  os << "enabled = " << (o.telemetry.enabled ? 1 : 0) << "\n";
  os << "sample_rate = " << o.telemetry.sample_rate << "\n";
  os << "out_dir = " << o.telemetry.out_dir << "\n";
  os << "chrome_trace = " << (o.telemetry.chrome_trace ? 1 : 0) << "\n";
  os << "snapshot_interval_ns = " << o.telemetry.snapshot_interval << "\n";
  os << "\n[prof]\n";
  os << "enabled = " << (o.prof.enabled ? 1 : 0) << "\n";
  os << "\n[checkpoint]\n";
  if (!o.checkpoint.path.empty()) os << "path = " << o.checkpoint.path << "\n";
  os << "resume = " << (o.checkpoint.resume ? 1 : 0) << "\n";
  os << "\n[experiment]\n";
  os << "seed = " << o.seed << "\n";
  os << "msg_scale = " << o.msg_scale << "\n";
  os << "max_events = " << o.max_events << "\n";
  os << "eager_threshold = " << o.replay.eager_threshold << "\n";
  os << "control_bytes = " << o.replay.control_bytes << "\n";
  return os.str();
}

}  // namespace dfly
