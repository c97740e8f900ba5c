// Reproduces Fig. 10: FB under (a) uniform-random and (b) bursty background
// traffic, plus (c) local channel traffic with the bursty background.
//
// Paper shape: uniform background leaves FB nearly untouched; bursty
// background prolongs communication (less than CR's hit), adaptive routing
// shows more variability than minimal, and contiguous/random-cabinet
// placements vary the least.
#include "bench_interference.hpp"

int main() {
  using namespace dfly;
  const double scale = env_scale(0.25);
  const std::uint64_t seed = env_seed(42);
  print_bench_header("Fig. 10", "FB under uniform-random and bursty background traffic", scale,
                     seed);

  ExperimentOptions options;
  options.seed = seed;
  const Workload fb = bench::fb_workload(scale);

  bench::run_interference_figure(
      fb, options,
      {// (a) uniform: 2456 nodes x 15.6 KB = 38.3 MB per tick (Table II: 38.38 MB).
       {bench::uniform_background(15600, 10 * units::kMicrosecond, scale),
        /*traffic_tables=*/false},
       // (b)+(c) bursty: 2456 nodes x 4 peers x 50 KB = 491 MB per burst.
       {bench::bursty_background(50 * units::kKB, 4, 100 * units::kMicrosecond, scale),
        /*traffic_tables=*/true}});
  return 0;
}
