#include <array>

#include "workload/exchange.hpp"
#include "workload/workload.hpp"

namespace dfly {
namespace {

int grid_rank(int x, int y, int z, const AmgParams& p) {
  return (z * p.ny + y) * p.nx + x;
}

}  // namespace

// Algebraic multigrid (BoomerAMG-derived): regional communication on a 12^3
// rank grid, up to six neighbors per rank (fewer at grid boundaries — the
// domain is not periodic). Each V-cycle visits `levels` levels; at level l
// only ranks on the 2^l-strided subgrid are active, exchanging halves of the
// previous level's message size ("regional communication with decreasing
// message size"). The vcycles separated by barriers are the three
// short-duration surges of Fig. 2(f).
Workload make_amg(const AmgParams& params) {
  check_scale(params.scale, "amg");
  Trace trace(params.ranks());
  TagAllocator tags;

  for (int cycle = 0; cycle < params.vcycles; ++cycle) {
    for (int level = 0; level < params.levels; ++level) {
      const int stride = 1 << level;
      if (stride >= params.nx && stride >= params.ny && stride >= params.nz) break;
      const Bytes bytes = scaled(params.peak_message_bytes >> level, params.scale);
      if (bytes <= 0) continue;
      for (int z = 0; z < params.nz; z += stride) {
        for (int y = 0; y < params.ny; y += stride) {
          for (int x = 0; x < params.nx; x += stride) {
            const int r = grid_rank(x, y, z, params);
            const std::array<int, 3> coord = {x, y, z};
            const std::array<int, 3> dims = {params.nx, params.ny, params.nz};
            for (int dim = 0; dim < 3; ++dim) {
              // Non-periodic: only the +stride neighbor, if it exists.
              if (coord[dim] + stride >= dims[dim]) continue;
              std::array<int, 3> nb = coord;
              nb[dim] = coord[dim] + stride;
              const int peer = grid_rank(nb[0], nb[1], nb[2], params);
              emit_exchange(trace, tags, r, peer, bytes);
            }
          }
        }
      }
      emit_phase_end(trace);
    }
    // Surges are separated by a global synchronization point (none after the
    // last cycle — a trailing barrier would equalize every rank's finish
    // time and collapse the Fig. 3 distribution).
    if (cycle + 1 < params.vcycles)
      for (int r = 0; r < params.ranks(); ++r) trace.rank(r).push_back(TraceOp::barrier());
  }
  return Workload{"AMG", std::move(trace)};
}

}  // namespace dfly
