#include "core/config_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dfly {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// Parses an integer key into T. Text with a minus sign parses signed and the
/// rest unsigned (std::stoull would wrap "-1" to UINT64_MAX), so every value
/// of a 64-bit member parses.
template <typename T>
T parse_int(const std::string& value, const std::string& key) {
  const bool negative = value.find('-') != std::string::npos;
  std::size_t pos = 0;
  std::int64_t signed_value = 0;
  std::uint64_t unsigned_value = 0;
  try {
    if (negative)
      signed_value = std::stoll(value, &pos);
    else
      unsigned_value = std::stoull(value, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error("config: bad integer for " + key + ": '" + value + "'");
  }
  if (pos != value.size())
    throw std::runtime_error("config: trailing junk in " + key + ": '" + value + "'");
  // Refuse values T cannot hold instead of wrapping silently on the
  // narrowing cast.
  bool fits;
  if constexpr (std::is_same_v<T, bool>)
    fits = negative ? signed_value == 0 : unsigned_value <= 1;
  else
    fits = negative ? std::in_range<T>(signed_value) : std::in_range<T>(unsigned_value);
  if (!fits)
    throw std::runtime_error("config: value out of range for " + key + ": '" + value + "'");
  return negative ? static_cast<T>(signed_value) : static_cast<T>(unsigned_value);
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

/// The shortest text that parses back to exactly `v`, so a rendered config
/// reproduces the run it was rendered from.
std::string format_double(double v) {
  char text[32];
  return std::string(text, std::to_chars(text, text + sizeof text, v).ptr);
}

/// One config key: its section, its name and the ExperimentOptions member it
/// sets and renders.
struct Key {
  const char* section;
  const char* name;
  std::function<void(ExperimentOptions&, const std::string& key, const std::string& value)> parse;
  std::function<std::string(const ExperimentOptions&)> render;
};

/// A key bound to the member `field` returns (for a const or non-const
/// ExperimentOptions). Integer and bool members parse with parse_int and
/// render as integers, doubles in their shortest round-trip form.
template <typename Field>
Key key(const char* section, const char* name, Field field) {
  return {section, name,
          [field](ExperimentOptions& o, const std::string& k, const std::string& v) {
            auto& member = field(o);
            using T = std::remove_reference_t<decltype(member)>;
            if constexpr (std::is_same_v<T, std::string>)
              member = v;
            else if constexpr (std::is_same_v<T, double>)
              member = parse_double(v, k);
            else
              member = parse_int<T>(v, k);
          },
          [field](const ExperimentOptions& o) {
            const auto& member = field(o);
            using T = std::remove_cvref_t<decltype(member)>;
            if constexpr (std::is_same_v<T, std::string>)
              return member;
            else if constexpr (std::is_same_v<T, double>)
              return format_double(member);
            else
              return std::to_string(member);
          }};
}

/// Every supported key, in render order (grouped by section).
const std::vector<Key>& keys() {
  static const std::vector<Key> table = {
      key("topology", "groups", [](auto& o) -> auto& { return o.topo.groups; }),
      key("topology", "rows", [](auto& o) -> auto& { return o.topo.rows; }),
      key("topology", "cols", [](auto& o) -> auto& { return o.topo.cols; }),
      key("topology", "nodes_per_router", [](auto& o) -> auto& { return o.topo.nodes_per_router; }),
      key("topology", "global_ports_per_router",
          [](auto& o) -> auto& { return o.topo.global_ports_per_router; }),
      key("topology", "chassis_per_cabinet",
          [](auto& o) -> auto& { return o.topo.chassis_per_cabinet; }),
      key("network", "chunk_bytes", [](auto& o) -> auto& { return o.net.chunk_bytes; }),
      key("network", "terminal_bandwidth_gib",
          [](auto& o) -> auto& { return o.net.terminal_bandwidth_gib; }),
      key("network", "local_bandwidth_gib",
          [](auto& o) -> auto& { return o.net.local_bandwidth_gib; }),
      key("network", "global_bandwidth_gib",
          [](auto& o) -> auto& { return o.net.global_bandwidth_gib; }),
      key("network", "terminal_latency_ns", [](auto& o) -> auto& { return o.net.terminal_latency; }),
      key("network", "local_latency_ns", [](auto& o) -> auto& { return o.net.local_latency; }),
      key("network", "global_latency_ns", [](auto& o) -> auto& { return o.net.global_latency; }),
      key("network", "router_delay_ns", [](auto& o) -> auto& { return o.net.router_delay; }),
      key("network", "terminal_vc_buffer",
          [](auto& o) -> auto& { return o.net.terminal_vc_buffer; }),
      key("network", "local_vc_buffer", [](auto& o) -> auto& { return o.net.local_vc_buffer; }),
      key("network", "global_vc_buffer", [](auto& o) -> auto& { return o.net.global_vc_buffer; }),
      key("health", "enabled", [](auto& o) -> auto& { return o.health.enabled; }),
      key("health", "interval_ns", [](auto& o) -> auto& { return o.health.interval; }),
      key("health", "stall_ticks", [](auto& o) -> auto& { return o.health.stall_ticks; }),
      key("telemetry", "enabled", [](auto& o) -> auto& { return o.telemetry.enabled; }),
      key("telemetry", "sample_rate", [](auto& o) -> auto& { return o.telemetry.sample_rate; }),
      key("telemetry", "out_dir", [](auto& o) -> auto& { return o.telemetry.out_dir; }),
      key("telemetry", "chrome_trace", [](auto& o) -> auto& { return o.telemetry.chrome_trace; }),
      key("telemetry", "snapshot_interval_ns",
          [](auto& o) -> auto& { return o.telemetry.snapshot_interval; }),
      key("prof", "enabled", [](auto& o) -> auto& { return o.prof.enabled; }),
      key("experiment", "seed", [](auto& o) -> auto& { return o.seed; }),
      key("experiment", "msg_scale", [](auto& o) -> auto& { return o.msg_scale; }),
      key("experiment", "max_events", [](auto& o) -> auto& { return o.max_events; }),
      key("experiment", "eager_threshold",
          [](auto& o) -> auto& { return o.replay.eager_threshold; }),
      key("experiment", "control_bytes", [](auto& o) -> auto& { return o.replay.control_bytes; }),
  };
  return table;
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
    const std::string name = trim(line.substr(0, eq));
    const std::string key = section + "." + name;
    const std::string value = trim(line.substr(eq + 1));
    const auto it = std::find_if(keys().begin(), keys().end(), [&](const Key& k) {
      return section == k.section && name == k.name;
    });
    if (it == keys().end())
      throw std::runtime_error("config: unknown key '" + key + "' at line " +
                               std::to_string(line_no));
    it->parse(options, key, value);
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
  const char* section = nullptr;
  for (const Key& k : keys()) {
    if (section == nullptr || std::string_view(section) != k.section)
      os << (section ? "\n[" : "[") << k.section << "]\n";
    section = k.section;
    os << k.name << " = " << k.render(o) << "\n";
  }
  return os.str();
}

}  // namespace dfly
