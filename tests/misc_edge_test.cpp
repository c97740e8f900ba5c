// Assorted edge-case tests across modules.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "workload/characterize.hpp"
#include "workload/exchange.hpp"
#include "workload/workload.hpp"

namespace dfly {
namespace {

TEST(EnginePayload, FieldsArriveIntact) {
  struct Check : EventHandler {
    EventPayload seen;
    void handle_event(SimTime, const EventPayload& payload) override { seen = payload; }
  } check;
  Engine engine;
  engine.schedule(1, &check, EventPayload{-7, 0xDEADBEEFu, 0xFFFFFFFFu, 0x80000001u});
  engine.run();
  EXPECT_EQ(check.seen.kind, -7);
  EXPECT_EQ(check.seen.a, 0xDEADBEEFu);
  EXPECT_EQ(check.seen.b, 0xFFFFFFFFu);
  EXPECT_EQ(check.seen.c, 0x80000001u);
}

TEST(Characterize, BlockAggregateWithMoreBlocksThanRanks) {
  Trace t(3);
  TagAllocator tags;
  emit_exchange(t, tags, 0, 2, 100);
  const CommMatrix m(t);
  const auto grid = m.block_aggregate(8);
  Bytes total = 0;
  for (const auto& row : grid)
    for (const Bytes b : row) total += b;
  EXPECT_EQ(total, 200);
}

TEST(Characterize, EmptyTraceMatrix) {
  Trace t(4);
  const CommMatrix m(t);
  EXPECT_EQ(m.total_bytes(), 0);
  EXPECT_EQ(m.message_count(), 0u);
  EXPECT_EQ(m.pairs_used(), 0u);
  EXPECT_DOUBLE_EQ(m.average_message_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(m.locality_fraction(1), 0.0);
  const PhaseLoad load = phase_load(t);
  EXPECT_DOUBLE_EQ(load.peak(), 0.0);
}

TEST(Characterize, DelayOpsDoNotCountAsTraffic) {
  Trace t(2);
  t.rank(0).push_back(TraceOp::pause(1000));
  t.rank(0).push_back(TraceOp::isend(1, 500, 0));
  t.rank(1).push_back(TraceOp::irecv(0, 500, 0));
  const CommMatrix m(t);
  EXPECT_EQ(m.total_bytes(), 500);
  EXPECT_EQ(m.message_count(), 1u);
}

TEST(Workloads, ThetaScaleRankCountsMatchPaper) {
  EXPECT_EQ(make_crystal_router(CrParams{}).trace.ranks(), 1000);
  EXPECT_EQ(make_fill_boundary(FbParams{}).trace.ranks(), 1000);
  EXPECT_EQ(make_amg(AmgParams{}).trace.ranks(), 1728);
}

TEST(Workloads, GeneratorsAreIdempotent) {
  const Workload a = make_crystal_router(CrParams{});
  const Workload b = make_crystal_router(CrParams{});
  EXPECT_EQ(a.trace.total_ops(), b.trace.total_ops());
  EXPECT_EQ(a.trace.total_send_bytes(), b.trace.total_send_bytes());
}

TEST(Workloads, TinyScaleStillValidates) {
  // Extreme sensitivity scale (1%) must keep traces balanced (sizes clamp to
  // >= 1 byte on both sides identically).
  CrParams cr;
  cr.ranks = 32;
  cr.scale = 0.01;
  EXPECT_NO_THROW(make_crystal_router(cr).trace.validate());
  FbParams fb;
  fb.nx = fb.ny = fb.nz = 3;
  fb.scale = 0.01;
  EXPECT_NO_THROW(make_fill_boundary(fb).trace.validate());
  AmgParams amg;
  amg.nx = amg.ny = amg.nz = 4;
  amg.scale = 0.001;
  EXPECT_NO_THROW(make_amg(amg).trace.validate());
}

TEST(Workloads, FbSeedChangesLoadButStaysBalanced) {
  // The seed drives both the halo-size draws and the many-to-many partner
  // strides; any seed must yield a balanced trace, and loads must differ.
  FbParams a;
  a.nx = a.ny = a.nz = 4;
  FbParams b = a;
  b.seed = 12345;
  const Workload wa = make_fill_boundary(a);
  const Workload wb = make_fill_boundary(b);
  EXPECT_NO_THROW(wa.trace.validate());
  EXPECT_NO_THROW(wb.trace.validate());
  EXPECT_NE(wa.trace.total_send_bytes(), wb.trace.total_send_bytes());
  // The 6-neighbor halo core is seed-independent: the interior rank still
  // talks to all its face neighbors under either seed.
  const CommMatrix ma(wa.trace);
  const CommMatrix mb(wb.trace);
  for (const int peer : {20, 22, 17, 25, 5, 37}) {
    EXPECT_GT(ma.bytes(21, peer), 0);
    EXPECT_GT(mb.bytes(21, peer), 0);
  }
}

TEST(Exchange, HashedSizeIsDeterministicAndInRange) {
  for (std::uint64_t key = 0; key < 200; ++key) {
    const Bytes a = hashed_size(7, key, 100, 200);
    const Bytes b = hashed_size(7, key, 100, 200);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 100);
    EXPECT_LE(a, 200);
  }
  // Different seeds decorrelate.
  int diff = 0;
  for (std::uint64_t key = 0; key < 100; ++key)
    if (hashed_size(1, key, 0, 1'000'000) != hashed_size(2, key, 0, 1'000'000)) ++diff;
  EXPECT_GT(diff, 90);
}

TEST(Exchange, ScaledClampsToOneByte) {
  EXPECT_EQ(scaled(1000, 0.5), 500);
  EXPECT_EQ(scaled(1, 0.0001), 1);
  EXPECT_EQ(scaled(1000, 2.0), 2000);
}

}  // namespace
}  // namespace dfly
