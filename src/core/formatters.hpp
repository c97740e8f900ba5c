// Shared presentation helpers for the benchmark harness: Table I
// nomenclature, the standard CDF fraction grid, and environment-variable
// knobs so every bench binary scales uniformly.
#pragma once

#include <string>
#include <vector>

#include "util/table.hpp"

namespace dfly {

/// Reproduces Table I (placement x routing nomenclature).
Table table1_nomenclature();

/// Cumulative fractions used by all CDF tables (p50..p100).
const std::vector<double>& standard_cdf_fractions();

/// DFLY_SCALE: multiplies message volumes in the figure benches so the whole
/// suite's runtime can be traded against fidelity (EXPERIMENTS.md records
/// the scale each result was produced at). A finite positive number, the
/// whole of the variable; `fallback` when unset or not such a number.
double env_scale(double fallback);

/// DFLY_SEED: master seed override for the benches, a decimal integer in
/// [1, 2^64 - 1]; `fallback` when unset or not such an integer.
std::uint64_t env_seed(std::uint64_t fallback);

/// DFLY_THREADS: worker override for run_matrix in the benches, a decimal
/// integer in [1, INT_MAX]; `fallback` when unset or not such an integer.
int env_threads(int fallback);

/// Standard bench banner: paper context line + active scale/seed.
void print_bench_header(const std::string& id, const std::string& what, double scale,
                        std::uint64_t seed);

}  // namespace dfly
