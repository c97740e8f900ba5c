#include <array>

#include "workload/exchange.hpp"
#include "workload/workload.hpp"

namespace dfly {
namespace {

int grid_rank(int x, int y, int z, const FbParams& p) {
  return (z * p.ny + y) * p.nx + x;
}

int wrap(int v, int n) { return (v % n + n) % n; }

}  // namespace

// Fill boundary (BoxLib): 3-D block decomposition with periodic boundaries.
// Each iteration performs a 6-neighbor halo exchange whose aggregate per-rank
// load fluctuates strongly between min_step_load and max_step_load (Fig.
// 2(e)), followed by a light many-to-many stage across the rank set (the
// cross-set communication visible in Fig. 2(b)).
Workload make_fill_boundary(const FbParams& params) {
  check_scale(params.scale, "fill boundary");
  Trace trace(params.ranks());
  TagAllocator tags;

  for (int iter = 0; iter < params.iterations; ++iter) {
    // Halo exchange: per rank pair, the per-message size is a deterministic
    // draw so both endpoints agree; each rank sends 6 face messages whose sum
    // fluctuates within the documented band.
    const Bytes lo = params.min_step_load / 6;
    const Bytes hi = params.max_step_load / 6;
    for (int z = 0; z < params.nz; ++z) {
      for (int y = 0; y < params.ny; ++y) {
        for (int x = 0; x < params.nx; ++x) {
          const int r = grid_rank(x, y, z, params);
          const std::array<int, 3> dims = {params.nx, params.ny, params.nz};
          const std::array<int, 3> coord = {x, y, z};
          for (int dim = 0; dim < 3; ++dim) {
            if (dims[dim] < 2) continue;
            std::array<int, 3> nb = coord;
            nb[dim] = wrap(coord[dim] + 1, dims[dim]);
            const int peer = grid_rank(nb[0], nb[1], nb[2], params);
            if (peer == r) continue;
            const std::uint64_t key =
                (static_cast<std::uint64_t>(iter) << 40) ^
                (static_cast<std::uint64_t>(std::min(r, peer)) << 20) ^
                static_cast<std::uint64_t>(std::max(r, peer)) ^
                (static_cast<std::uint64_t>(dim) << 56);
            const Bytes bytes = scaled(hashed_size(params.seed, key, lo, hi), params.scale);
            emit_exchange(trace, tags, r, peer, bytes);
          }
        }
      }
    }
    emit_phase_end(trace);

    // Many-to-many: each rank exchanges small messages with a deterministic
    // pseudo-random partner set (shifted strides keep the pattern symmetric).
    for (int p = 0; p < params.a2a_partners; ++p) {
      SplitMix64 sm(params.seed ^ (static_cast<std::uint64_t>(iter) << 16) ^ (p + 1));
      const int stride = 1 + static_cast<int>(sm.next() % (params.ranks() - 1));
      const Bytes bytes = scaled(params.a2a_bytes, params.scale);
      // Pair r with r+stride (mod n); emit once per unordered pair.
      for (int r = 0; r < params.ranks(); ++r) {
        const int peer = (r + stride) % params.ranks();
        if (peer == r) continue;
        if (peer < r && (peer + stride) % params.ranks() == r) continue;  // already emitted
        emit_exchange(trace, tags, r, peer, bytes);
      }
      emit_phase_end(trace);
    }
  }
  return Workload{"FB", std::move(trace)};
}

}  // namespace dfly
