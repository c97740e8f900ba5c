// Example: quantify how much a noisy neighbor perturbs your application, and
// whether an "isolated" configuration (contiguous placement + minimal
// routing) shields it — the paper's §IV-C result in ~40 lines of user code.
//
// Usage: interference_study [app_ranks] [bg_message_KiB] [bg_interval_us]
//   defaults: 512 ranks, 64 KiB, 10 us
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/interference.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace dfly;
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 512;
  const Bytes bg_msg = (argc > 2 ? std::atoll(argv[2]) : 64) * units::kKiB;
  const SimTime bg_interval = (argc > 3 ? std::atoll(argv[3]) : 10) * units::kMicrosecond;

  // The "victim" application: a ring exchange, latency- and locality-bound.
  Workload app{"ring", make_ring_trace(ranks, 128 * units::kKiB, 3)};

  BackgroundSpec bg;
  bg.pattern = BackgroundSpec::Pattern::UniformRandom;
  bg.message_bytes = bg_msg;
  bg.interval = bg_interval;

  ExperimentOptions options;  // Theta system
  options.seed = 7;

  // Compare the paper's two poles: isolated (cont-min) vs balanced (rand-adp),
  // plus the middle grounds.
  const std::vector<ExperimentConfig> configs = {
      {PlacementKind::Contiguous, RoutingKind::Minimal},
      {PlacementKind::RandomCabinet, RoutingKind::Minimal},
      {PlacementKind::Contiguous, RoutingKind::Adaptive},
      {PlacementKind::RandomNode, RoutingKind::Adaptive},
  };

  std::printf("victim: %d-rank ring | background: %lld KiB to random peers every %lld us\n",
              ranks, static_cast<long long>(bg_msg / units::kKiB),
              static_cast<long long>(bg_interval / units::kMicrosecond));

  const InterferenceResult result = run_interference(app, configs, options, {bg}).front();
  result.degradation_table("Interference impact by configuration").print_markdown(std::cout);

  std::printf(
      "Reading: the paper's finding is that contiguous placement + minimal routing\n"
      "creates a relatively isolated region of the shared network; expect its\n"
      "degradation column to be the smallest.\n");
  return 0;
}
