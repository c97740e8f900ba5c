// Tests for the application workload generators and characterization —
// structural properties the paper documents for each miniapp (Fig. 2).
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "workload/characterize.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace dfly {
namespace {

CrParams small_cr() {
  CrParams p;
  p.ranks = 64;
  p.iterations = 1;
  return p;
}

FbParams small_fb() {
  FbParams p;
  p.nx = p.ny = p.nz = 4;
  p.iterations = 1;
  return p;
}

AmgParams small_amg() {
  AmgParams p;
  p.nx = p.ny = p.nz = 4;
  p.vcycles = 2;
  p.levels = 2;
  return p;
}

TEST(CrystalRouter, TraceIsBalanced) {
  EXPECT_NO_THROW(make_crystal_router(small_cr()).trace.validate());
  EXPECT_NO_THROW(make_crystal_router(CrParams{}).trace.validate());  // full 1000 ranks
}

TEST(CrystalRouter, ConstantMessageSize) {
  const Workload w = make_crystal_router(small_cr());
  const CommMatrix m(w.trace);
  // "relatively constant message load at around 190 KB"
  EXPECT_DOUBLE_EQ(m.average_message_bytes(), 190.0 * units::kKB);
}

TEST(CrystalRouter, HypercubePlusNeighborhoodPattern) {
  const CrParams p = small_cr();
  const Workload w = make_crystal_router(p);
  const CommMatrix m(w.trace);
  // Rank 0 talks to hypercube partners 1,2,4,8,16,32 and neighbors 1,2.
  for (int bit = 0; bit < 6; ++bit) EXPECT_GT(m.bytes(0, 1 << bit), 0);
  EXPECT_GT(m.bytes(5, 6), 0);  // +1 neighbor
  EXPECT_GT(m.bytes(5, 7), 0);  // +2 neighbor
  EXPECT_EQ(m.bytes(0, 63), 0); // not a partner at any stage
}

TEST(CrystalRouter, ScaleMultipliesLoad) {
  CrParams p = small_cr();
  const Bytes base = make_crystal_router(p).trace.total_send_bytes();
  p.scale = 0.5;
  const Bytes half = make_crystal_router(p).trace.total_send_bytes();
  EXPECT_EQ(half, base / 2);
}

// A NaN, infinite, zero or negative message scale is rejected up front: NaN
// would reach the float-to-Bytes cast (undefined), and a negative scale would
// silently clamp every message to one byte.
TEST(Workloads, RejectNonFiniteOrNonPositiveScale) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0, -1.0}) {
    CrParams cr = small_cr();
    cr.scale = bad;
    EXPECT_THROW(make_crystal_router(cr), std::invalid_argument) << bad;
    FbParams fb;
    fb.scale = bad;
    EXPECT_THROW(make_fill_boundary(fb), std::invalid_argument) << bad;
    AmgParams amg;
    amg.scale = bad;
    EXPECT_THROW(make_amg(amg), std::invalid_argument) << bad;
    Trace ring = make_ring_trace(4, 1000);
    EXPECT_THROW(ring.scale_message_sizes(bad), std::invalid_argument) << bad;
  }
}

TEST(FillBoundary, TraceIsBalanced) {
  EXPECT_NO_THROW(make_fill_boundary(small_fb()).trace.validate());
  EXPECT_NO_THROW(make_fill_boundary(FbParams{}).trace.validate());  // full 1000 ranks
}

TEST(FillBoundary, MessageSizesFluctuateWithinBand) {
  const FbParams p = small_fb();
  const Workload w = make_fill_boundary(p);
  Bytes lo = std::numeric_limits<Bytes>::max(), hi = 0;
  for (int r = 0; r < w.trace.ranks(); ++r) {
    for (const TraceOp& op : w.trace.rank(r)) {
      if (op.kind != OpKind::Isend || op.bytes == p.a2a_bytes) continue;
      lo = std::min(lo, op.bytes);
      hi = std::max(hi, op.bytes);
    }
  }
  EXPECT_GE(lo, p.min_step_load / 6);
  EXPECT_LE(hi, p.max_step_load / 6);
  EXPECT_GT(hi, 2 * lo) << "halo sizes should fluctuate strongly (Fig. 2e)";
}

TEST(FillBoundary, SixNeighborHaloPlusManyToMany) {
  const FbParams p = small_fb();
  const CommMatrix m(make_fill_boundary(p).trace);
  // Interior rank (1,1,1) = rank 1 + 4 + 16 = 21 talks to all 6 face
  // neighbors.
  const int r = 21;
  for (const int peer : {20, 22, 17, 25, 5, 37}) EXPECT_GT(m.bytes(r, peer), 0);
  // And the many-to-many stage reaches beyond the halo.
  EXPECT_GT(m.pairs_used(), 6u * m.ranks());
}

TEST(FillBoundary, DeterministicForSameSeed) {
  const FbParams p = small_fb();
  const Workload a = make_fill_boundary(p);
  const Workload b = make_fill_boundary(p);
  EXPECT_EQ(a.trace.total_send_bytes(), b.trace.total_send_bytes());
}

TEST(Amg, TraceIsBalanced) {
  EXPECT_NO_THROW(make_amg(small_amg()).trace.validate());
  EXPECT_NO_THROW(make_amg(AmgParams{}).trace.validate());  // full 1728 ranks
}

TEST(Amg, RegionalSixNeighborPattern) {
  const CommMatrix m(make_amg(AmgParams{}).trace);
  // Interior rank of the 12^3 grid: (1,1,1) -> 1 + 12 + 144 = 157 exchanges
  // with +-x, +-y, +-z neighbors at the finest level.
  const int r = 157;
  for (const int peer : {156, 158, 145, 169, 13, 301}) EXPECT_GT(m.bytes(r, peer), 0);
  // Corner rank 0 has only 3 finest-level neighbors (non-periodic domain) but
  // also coarse-level partners at stride 2,4,...; its row stays regional.
  EXPECT_GT(m.bytes(0, 1), 0);
  EXPECT_EQ(m.bytes(0, 11), 0);
}

TEST(Amg, MessageSizesDecreasePerLevel) {
  const AmgParams p;
  const Workload w = make_amg(AmgParams{});
  // Finest level: peak size; coarser levels: halved each time.
  std::set<Bytes> sizes;
  for (const TraceOp& op : w.trace.rank(0))
    if (op.kind == OpKind::Isend) sizes.insert(op.bytes);
  ASSERT_GE(sizes.size(), 2u);
  EXPECT_EQ(*sizes.rbegin(), p.peak_message_bytes);
  // Every size is the peak halved (with truncation) some number of times.
  for (const Bytes s : sizes) {
    bool matches = false;
    for (int level = 0; level < p.levels; ++level)
      if (s == (p.peak_message_bytes >> level)) matches = true;
    EXPECT_TRUE(matches) << "unexpected message size " << s;
  }
}

TEST(Amg, SurgesAppearAsPhases) {
  const AmgParams p = small_amg();
  const PhaseLoad load = phase_load(make_amg(p).trace);
  // Every vcycle contributes `levels` phases (plus barrier separators); the
  // load profile must be nonzero in multiple separated phases.
  int active = 0;
  for (const double v : load.avg_bytes_per_rank)
    if (v > 0) ++active;
  EXPECT_GE(active, p.vcycles);
}

TEST(Amg, TotalLoadIsSmallComparedToCr) {
  // Paper: "the message load is relatively small compared with that of the
  // other two applications."
  const Bytes amg = make_amg(AmgParams{}).trace.total_send_bytes() / 1728;
  const Bytes cr = make_crystal_router(CrParams{}).trace.total_send_bytes() / 1000;
  EXPECT_LT(amg * 5, cr);
}

TEST(Synthetic, RingTraceValidates) {
  EXPECT_NO_THROW(make_ring_trace(10, 1000, 2).validate());
  EXPECT_THROW(make_ring_trace(1, 1000), std::invalid_argument);
}

TEST(Synthetic, RandomPairsAreDisjoint) {
  Rng rng(1);
  const Trace t = make_random_pairs_trace(20, 10, 500, rng);
  EXPECT_NO_THROW(t.validate());
  const CommMatrix m(t);
  for (int r = 0; r < 20; ++r) EXPECT_EQ(m.row(r).size(), 1u);
  Rng rng2(2);
  EXPECT_THROW(make_random_pairs_trace(10, 6, 500, rng2), std::invalid_argument);
}

TEST(Synthetic, PermutationHasNoFixedPointsAndValidates) {
  Rng rng(3);
  const Trace t = make_permutation_trace(50, 1000, rng);
  EXPECT_NO_THROW(t.validate());
  const CommMatrix m(t);
  for (int r = 0; r < 50; ++r) {
    EXPECT_EQ(m.row(r).size(), 1u);
    EXPECT_EQ(m.bytes(r, r), 0);
  }
}

TEST(Synthetic, AllToAllIsDense) {
  const Trace t = make_all_to_all_trace(8, 100);
  EXPECT_NO_THROW(t.validate());
  const CommMatrix m(t);
  EXPECT_EQ(m.pairs_used(), 8u * 7u);
  EXPECT_EQ(m.total_bytes(), 8 * 7 * 100);
}

TEST(Characterize, CommMatrixBasics) {
  Trace t(3);
  t.rank(0).push_back(TraceOp::isend(1, 100, 0));
  t.rank(1).push_back(TraceOp::irecv(0, 100, 0));
  t.rank(0).push_back(TraceOp::isend(2, 50, 0));
  t.rank(2).push_back(TraceOp::irecv(0, 50, 0));
  const CommMatrix m(t);
  EXPECT_EQ(m.total_bytes(), 150);
  EXPECT_EQ(m.message_count(), 2u);
  EXPECT_EQ(m.bytes(0, 1), 100);
  EXPECT_EQ(m.bytes(1, 0), 0);
  EXPECT_DOUBLE_EQ(m.average_message_bytes(), 75.0);
  EXPECT_DOUBLE_EQ(m.locality_fraction(1), 100.0 / 150.0);
  EXPECT_DOUBLE_EQ(m.locality_fraction(2), 1.0);
}

TEST(Characterize, BlockAggregatePreservesTotal) {
  const Workload w = make_crystal_router(small_cr());
  const CommMatrix m(w.trace);
  const auto grid = m.block_aggregate(8);
  Bytes total = 0;
  for (const auto& row : grid)
    for (const Bytes b : row) total += b;
  EXPECT_EQ(total, m.total_bytes());
}

TEST(Characterize, PhaseLoadSumsToTotal) {
  const Workload w = make_crystal_router(small_cr());
  const PhaseLoad load = phase_load(w.trace);
  double total = 0;
  for (const double v : load.avg_bytes_per_rank) total += v;
  EXPECT_NEAR(total * w.trace.ranks(), static_cast<double>(w.trace.total_send_bytes()), 1.0);
}

TEST(Characterize, PerRankSendBytes) {
  const Workload w = make_crystal_router(small_cr());
  const auto totals = per_rank_send_bytes(w.trace);
  Bytes sum = 0;
  for (const Bytes b : totals) sum += b;
  EXPECT_EQ(sum, w.trace.total_send_bytes());
}

// Unordered-iteration guard (DESIGN.md par.12):
// CommMatrix stores rows as unordered_map and its aggregations iterate them.
// That is only safe because every consumer is a commutative integer
// reduction. Pin it: two traces with identical traffic but opposite per-rank
// op order populate the hash maps in different insertion orders, and every
// derived statistic must still match exactly.
TEST(Characterize, CommMatrixAggregationIsIterationOrderInsensitive) {
  constexpr int n = 16;
  Trace fwd(n), rev(n);
  for (int r = 0; r < n; ++r) {
    for (int d = 0; d < n; ++d)
      if (d != r) fwd.rank(r).push_back(TraceOp::send(d, 100 + 7 * d, 0));
    for (int d = n - 1; d >= 0; --d)
      if (d != r) rev.rank(r).push_back(TraceOp::send(d, 100 + 7 * d, 0));
  }
  const CommMatrix a(fwd), b(rev);
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.pairs_used(), b.pairs_used());
  for (const int window : {0, 1, 3, n}) {
    EXPECT_EQ(a.locality_fraction(window), b.locality_fraction(window)) << window;
  }
  EXPECT_EQ(a.block_aggregate(4), b.block_aggregate(4));
  for (int r = 0; r < n; ++r)
    for (int d = 0; d < n; ++d) EXPECT_EQ(a.bytes(r, d), b.bytes(r, d)) << r << "->" << d;
}

}  // namespace
}  // namespace dfly
