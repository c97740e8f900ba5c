// Reproduces Fig. 8: AMG under uniform-random background traffic —
// communication time per configuration plus local/global channel traffic on
// the routers serving AMG.
//
// Paper shape: cont-min and cab-min suffer the least (minimal routing keeps
// background packets off AMG's routers; contiguous placement confines its
// neighbor traffic); rand-adp is by far the worst — adaptive routing steers
// background traffic through AMG's routers.
#include "bench_interference.hpp"

int main() {
  using namespace dfly;
  const double scale = env_scale(0.25);
  const std::uint64_t seed = env_seed(42);
  print_bench_header("Fig. 8", "AMG under uniform-random background traffic", scale, seed);

  ExperimentOptions options;
  options.seed = seed;
  const Workload amg = bench::amg_workload(scale);
  // 1728 background nodes x 16 KB = 27.6 MB per tick (Table II: 27 MB). The
  // 1 us interval keeps every background NIC continuously sending, the
  // paper's "background traffic that contiguously sends messages".
  const BackgroundSpec spec = bench::uniform_background(16 * units::kKB, units::kMicrosecond, scale);
  bench::run_interference_figure(amg, options, {{spec, /*traffic_tables=*/true}});
  return 0;
}
