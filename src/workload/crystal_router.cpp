#include "workload/exchange.hpp"
#include "workload/workload.hpp"

namespace dfly {

// Crystal router (Nek5000 kernel): a multistage many-to-many built from
// pairwise hypercube stages — stage k exchanges rank <-> rank^2^k — with the
// "substantial portion ... in small neighborhoods" modelled as additional
// +-1..+-radius exchanges each iteration. Message sizes are constant
// (~190 KB), matching Fig. 2(d)'s steady load.
Workload make_crystal_router(const CrParams& params) {
  check_scale(params.scale, "crystal router");
  Trace trace(params.ranks);
  TagAllocator tags;
  const Bytes msg = scaled(params.message_bytes, params.scale);

  int stages = 0;
  while ((1 << stages) < params.ranks) ++stages;

  for (int iter = 0; iter < params.iterations; ++iter) {
    // Multistage many-to-many.
    for (int k = 0; k < stages; ++k) {
      for (int r = 0; r < params.ranks; ++r) {
        const int partner = r ^ (1 << k);
        if (partner >= params.ranks || partner < r) continue;  // emit once per pair
        emit_exchange(trace, tags, r, partner, msg);
      }
      emit_phase_end(trace);
    }
    // Neighborhood exchanges.
    for (int d = 1; d <= params.neighborhood_radius; ++d) {
      for (int r = 0; r + d < params.ranks; ++r) emit_exchange(trace, tags, r, r + d, msg);
      emit_phase_end(trace);
    }
  }
  return Workload{"CR", std::move(trace)};
}

}  // namespace dfly
