#include "core/formatters.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/experiment.hpp"

namespace dfly {

Table table1_nomenclature() {
  Table t("Table I: placement x routing nomenclature");
  t.set_columns({"placement policy", "minimal routing", "adaptive routing"});
  const char* names[] = {"Contiguous", "Random-cabinet", "Random-chassis", "Random-router",
                         "Random-node"};
  int i = 0;
  for (const PlacementKind placement : kAllPlacements) {
    const std::string base = to_string(placement);
    t.add_row({names[i++], base + "-min", base + "-adp"});
  }
  return t;
}

const std::vector<double>& standard_cdf_fractions() {
  static const std::vector<double> fractions = {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00};
  return fractions;
}

namespace {

/// A finite positive number, the whole of the variable; anything else
/// (unset, empty, trailing text, inf, nan, out of range, <= 0) yields
/// `fallback`.
double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (errno == ERANGE || *end != '\0' || !std::isfinite(parsed) || parsed <= 0) return fallback;
  return parsed;
}

/// A positive decimal integer no larger than `max`, the whole of the
/// variable; anything else (unset, empty, signed, trailing text, 0, out of
/// range) yields `fallback`.
std::uint64_t env_count(const char* name, std::uint64_t max, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value < '0' || *value > '9') return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (errno == ERANGE || *end != '\0' || parsed == 0 || parsed > max) return fallback;
  return parsed;
}

}  // namespace

double env_scale(double fallback) { return env_double("DFLY_SCALE", fallback); }

std::uint64_t env_seed(std::uint64_t fallback) {
  return env_count("DFLY_SEED", std::numeric_limits<std::uint64_t>::max(), fallback);
}

int env_threads(int fallback) {
  return static_cast<int>(env_count("DFLY_THREADS", std::numeric_limits<int>::max(),
                                    static_cast<std::uint64_t>(fallback)));
}

void print_bench_header(const std::string& id, const std::string& what, double scale,
                        std::uint64_t seed) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("Paper: Trade-Off Study of Localizing Communication and Balancing\n");
  std::printf("       Network Traffic on a Dragonfly System (IPDPS 2018)\n");
  std::printf("message-volume scale=%.3g (env DFLY_SCALE), seed=%llu (env DFLY_SEED)\n", scale,
              static_cast<unsigned long long>(seed));
  std::printf("==============================================================\n");
}

}  // namespace dfly
