// Reproduces Fig. 9: CR under (a) uniform-random and (b) bursty background
// traffic, plus (c) local channel traffic with the bursty background.
//
// Paper shape: uniform background barely moves CR; bursty background
// prolongs communication substantially for every configuration except
// cont-min / cab-min, whose local channels stay comparatively quiet.
#include "bench_interference.hpp"

int main() {
  using namespace dfly;
  const double scale = env_scale(0.25);
  const std::uint64_t seed = env_seed(42);
  print_bench_header("Fig. 9", "CR under uniform-random and bursty background traffic", scale,
                     seed);

  ExperimentOptions options;
  options.seed = seed;
  const Workload cr = bench::cr_workload(scale);

  bench::run_interference_figure(
      cr, options,
      {// (a) uniform: 2456 nodes x 15.6 KB = 38.3 MB per tick (Table II: 38.38 MB).
       {bench::uniform_background(15600, 20 * units::kMicrosecond, scale),
        /*traffic_tables=*/false},
       // (b)+(c) bursty: 2456 nodes x 8 peers x 100 KB = 1.96 GB per burst.
       {bench::bursty_background(100 * units::kKB, 8, 100 * units::kMicrosecond, scale),
        /*traffic_tables=*/true}});
  return 0;
}
