// Shared driver for Figs. 8-10: run the target application under the full
// Table I matrix while a synthetic background job floods the remaining
// nodes, then print communication-time distributions, degradation vs the
// interference-free baseline, and the channel-traffic CDFs of the routers
// serving the target application.
//
// Background loads are calibrated so that at the default DFLY_SCALE=0.25 the
// uniform-random per-tick load matches the paper's Table II (27 MB for AMG,
// 38.38 MB for CR/FB); bursty loads keep the paper's burst-dwarfs-app ratio
// at simulation scale (see DESIGN.md on the fan-out substitution). All
// background message sizes scale with DFLY_SCALE so the app:background ratio
// is invariant under the suite-wide knob.
#pragma once

#include <iostream>

#include "bench_common.hpp"
#include "core/interference.hpp"

namespace dfly::bench {

inline Bytes scaled_bg(Bytes bytes_at_default, double scale) {
  const auto b = static_cast<Bytes>(static_cast<double>(bytes_at_default) * (scale / 0.25));
  return b < 1 ? 1 : b;
}

/// Uniform-random background: small messages at a small interval (paper:
/// 0.002-1 ms).
inline BackgroundSpec uniform_background(Bytes message_at_default, SimTime interval,
                                         double scale) {
  BackgroundSpec spec;
  spec.pattern = BackgroundSpec::Pattern::UniformRandom;
  spec.message_bytes = scaled_bg(message_at_default, scale);
  spec.interval = interval;
  return spec;
}

/// Bursty background: every node sends large messages to `fanout` peers at a
/// long interval (paper: 0.1-60 ms, all-to-all; the fanout caps the O(n^2)
/// message count).
inline BackgroundSpec bursty_background(Bytes message_at_default, int fanout, SimTime interval,
                                        double scale) {
  BackgroundSpec spec;
  spec.pattern = BackgroundSpec::Pattern::Bursty;
  spec.message_bytes = scaled_bg(message_at_default, scale);
  spec.burst_fanout = fanout;
  spec.interval = interval;
  return spec;
}

/// One panel of a figure: a background spec, and whether to print the
/// channel-traffic CDFs under it.
struct BackgroundPanel {
  BackgroundSpec spec;
  bool traffic_tables = false;
};

/// Runs every panel's spec over the Table I matrix in one run_interference
/// call (one shared no-background baseline), then prints the panels in order.
inline void run_interference_figure(const Workload& workload, const ExperimentOptions& options,
                                    const std::vector<BackgroundPanel>& panels) {
  std::vector<BackgroundSpec> specs;
  for (const BackgroundPanel& panel : panels) specs.push_back(panel.spec);
  const std::vector<InterferenceResult> results =
      run_interference(workload, table1_configs(), options, specs, bench_threads());

  const std::size_t bg_nodes = options.topo.total_nodes() - workload.trace.ranks();
  for (std::size_t p = 0; p < panels.size(); ++p) {
    const BackgroundSpec& spec = panels[p].spec;
    const InterferenceResult& result = results[p];
    std::printf("running %s vs %s background (peak load %.2f MB per tick, interval %.3f ms)...\n",
                workload.name.c_str(), to_string(spec.pattern),
                units::to_mb(spec.peak_load(bg_nodes)), units::to_ms(spec.interval));

    const std::string prefix = workload.name + " + " + to_string(spec.pattern) + " background";
    comm_time_box_table(prefix + ": per-rank communication time (ms)", result.with_background)
        .print_markdown(std::cout);
    result.degradation_table(prefix + ": degradation vs no-background baseline")
        .print_markdown(std::cout);
    if (panels[p].traffic_tables) {
      const std::vector<double>& fr = standard_cdf_fractions();
      cdf_table(prefix + ": local channel traffic MB on app routers (CDF quantiles)",
                result.with_background, fr, select_local_traffic)
          .print_markdown(std::cout);
      cdf_table(prefix + ": global channel traffic MB on app routers (CDF quantiles)",
                result.with_background, fr, select_global_traffic)
          .print_markdown(std::cout);
    }
  }
}

}  // namespace dfly::bench
