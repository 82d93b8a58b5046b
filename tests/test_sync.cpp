// Tests for the synchronization filters: wait_for_all, time_out, null.
#include <gtest/gtest.h>

#include "common/timer.hpp"
#include "core/registry.hpp"
#include "core/sync.hpp"

namespace tbon {
namespace {

PacketPtr packet_from(std::uint32_t rank, double v) {
  return Packet::make(1, 100, rank, "f64", {v});
}

FilterContext context_with_children(std::size_t n, std::string params = "") {
  FilterContext ctx;
  ctx.num_children = n;
  Config config;
  std::size_t pos = 0;
  while (pos < params.size()) {
    auto end = params.find(' ', pos);
    if (end == std::string::npos) end = params.size();
    config.add(std::string_view(params).substr(pos, end - pos));
    pos = end + 1;
  }
  ctx.params = config;
  return ctx;
}

// ---- wait_for_all -----------------------------------------------------------

TEST(WaitForAll, HoldsUntilAllChildrenReport) {
  FilterContext ctx = context_with_children(3);
  WaitForAllSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  EXPECT_TRUE(sync.drain_ready(now_ns(), ctx).empty());
  sync.on_packet(1, packet_from(1, 2.0), ctx);
  EXPECT_TRUE(sync.drain_ready(now_ns(), ctx).empty());
  sync.on_packet(2, packet_from(2, 3.0), ctx);
  const auto batches = sync.drain_ready(now_ns(), ctx);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 3u);
}

TEST(WaitForAll, WavesStayAligned) {
  // A fast child sending two packets must not contaminate the first wave.
  FilterContext ctx = context_with_children(2);
  WaitForAllSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  sync.on_packet(0, packet_from(0, 10.0), ctx);  // wave 2 from child 0
  EXPECT_TRUE(sync.drain_ready(now_ns(), ctx).empty());
  sync.on_packet(1, packet_from(1, 2.0), ctx);
  auto batches = sync.drain_ready(now_ns(), ctx);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_DOUBLE_EQ(batches[0][0]->get_f64(0), 1.0);
  EXPECT_DOUBLE_EQ(batches[0][1]->get_f64(0), 2.0);

  sync.on_packet(1, packet_from(1, 20.0), ctx);
  batches = sync.drain_ready(now_ns(), ctx);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_DOUBLE_EQ(batches[0][0]->get_f64(0), 10.0);
  EXPECT_DOUBLE_EQ(batches[0][1]->get_f64(0), 20.0);
}

TEST(WaitForAll, MultipleWavesDrainTogether) {
  FilterContext ctx = context_with_children(2);
  WaitForAllSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  sync.on_packet(0, packet_from(0, 2.0), ctx);
  sync.on_packet(1, packet_from(1, 10.0), ctx);
  sync.on_packet(1, packet_from(1, 20.0), ctx);
  const auto batches = sync.drain_ready(now_ns(), ctx);
  ASSERT_EQ(batches.size(), 2u);
}

TEST(WaitForAll, ChildFailureDegradesToSurvivors) {
  // The reliability behaviour: a dead child no longer blocks waves.
  FilterContext ctx = context_with_children(3);
  WaitForAllSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  sync.on_packet(1, packet_from(1, 2.0), ctx);
  EXPECT_TRUE(sync.drain_ready(now_ns(), ctx).empty());
  sync.membership_changed({.child = 2, .added = false, .num_children = 2}, ctx);
  const auto batches = sync.drain_ready(now_ns(), ctx);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 2u);
}

TEST(WaitForAll, AllChildrenFailedStillDrains) {
  FilterContext ctx = context_with_children(2);
  WaitForAllSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  sync.membership_changed({.child = 0, .added = false, .num_children = 1}, ctx);
  sync.membership_changed({.child = 1, .added = false, .num_children = 0}, ctx);
  const auto batches = sync.drain_ready(now_ns(), ctx);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 1u);
}

TEST(WaitForAll, FlushDeliversPartialWaves) {
  FilterContext ctx = context_with_children(3);
  WaitForAllSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  sync.on_packet(0, packet_from(0, 2.0), ctx);
  sync.on_packet(1, packet_from(1, 3.0), ctx);
  const auto batches = sync.flush(ctx);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 2u);  // packets 1.0 and 3.0
  EXPECT_EQ(batches[1].size(), 1u);  // packet 2.0
}

TEST(WaitForAll, NoDeadline) {
  FilterContext ctx = context_with_children(2);
  WaitForAllSync sync(ctx);
  EXPECT_EQ(sync.next_deadline(), std::nullopt);
}

// ---- time_out ----------------------------------------------------------------

TEST(TimeOut, DeliversAfterWindow) {
  FilterContext ctx = context_with_children(2, "window_ms=10");
  TimeOutSync sync(ctx);
  const auto start = now_ns();
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  EXPECT_TRUE(sync.drain_ready(start, ctx).empty());  // window just opened
  const auto deadline = sync.next_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_NEAR(static_cast<double>(*deadline - start), 10e6, 1e6);

  sync.on_packet(1, packet_from(1, 2.0), ctx);
  // Still inside the window.
  EXPECT_TRUE(sync.drain_ready(start + 5'000'000, ctx).empty());
  // Window elapsed.
  const auto batches = sync.drain_ready(start + 11'000'000, ctx);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(sync.next_deadline(), std::nullopt);
}

TEST(TimeOut, DefaultWindowIs50ms) {
  FilterContext ctx = context_with_children(1);
  TimeOutSync sync(ctx);
  const auto start = now_ns();
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  sync.drain_ready(start, ctx);
  const auto deadline = sync.next_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_NEAR(static_cast<double>(*deadline - start), 50e6, 5e6);
}

TEST(TimeOut, FlushDeliversImmediately) {
  FilterContext ctx = context_with_children(2, "window_ms=10000");
  TimeOutSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  sync.drain_ready(now_ns(), ctx);
  const auto batches = sync.flush(ctx);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 1u);
}

TEST(TimeOut, EmptyFlushYieldsNothing) {
  FilterContext ctx = context_with_children(2);
  TimeOutSync sync(ctx);
  EXPECT_TRUE(sync.flush(ctx).empty());
}

TEST(TimeOut, DeadlineArmsAtFirstBufferedPacketNotAtDrain) {
  // Regression: the window used to be armed lazily by the next drain_ready()
  // call, so the window start drifted later than the packet that opened it.
  FilterContext ctx = context_with_children(2, "window_ms=50");
  TimeOutSync sync(ctx);
  const auto before = now_ns();
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  const auto after = now_ns();
  const auto deadline = sync.next_deadline();  // note: no drain_ready() yet
  ASSERT_TRUE(deadline.has_value());
  EXPECT_GE(*deadline, before + 50'000'000);
  EXPECT_LE(*deadline, after + 50'000'000);
}

TEST(TimeOut, LaterPacketsDoNotExtendTheWindow) {
  FilterContext ctx = context_with_children(3, "window_ms=50");
  TimeOutSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  const auto armed = sync.next_deadline();
  ASSERT_TRUE(armed.has_value());
  sync.on_packet(1, packet_from(1, 2.0), ctx);
  sync.on_packet(2, packet_from(2, 3.0), ctx);
  EXPECT_EQ(sync.next_deadline(), armed);  // fixed by the first packet
  const auto batches = sync.drain_ready(*armed, ctx);  // whole batch at deadline
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 3u);
}

TEST(TimeOut, PendingBatchNeverWaitsMoreThanOneWindow) {
  // Regression for the double-armed window timer: drain_ready() used to
  // re-arm the window whenever it ran with a batch pending, so a drain that
  // raced in before the deadline (routine once upstream flow control blocks
  // a send mid-loop) restarted the clock and the batch waited up to two
  // windows.  A pending batch must deliver AT the deadline armed by its
  // first packet, no matter how many drains poll before it.
  FilterContext ctx = context_with_children(2, "window_ms=50");
  TimeOutSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  const auto armed = sync.next_deadline();
  ASSERT_TRUE(armed.has_value());

  // Pre-deadline drains: empty, and the deadline must not move.
  for (std::int64_t elapsed : {1'000'000, 10'000'000, 49'000'000}) {
    EXPECT_TRUE(sync.drain_ready(*armed - 50'000'000 + elapsed, ctx).empty());
    EXPECT_EQ(sync.next_deadline(), armed);
  }

  // Exactly one window after the opening packet — not armed + window.
  const auto batches = sync.drain_ready(*armed, ctx);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 1u);
  EXPECT_EQ(sync.next_deadline(), std::nullopt);
}

TEST(TimeOut, WindowReArmsForTheNextBatch) {
  FilterContext ctx = context_with_children(1, "window_ms=10");
  TimeOutSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  const auto first = *sync.next_deadline();
  ASSERT_EQ(sync.drain_ready(first, ctx).size(), 1u);
  EXPECT_EQ(sync.next_deadline(), std::nullopt);  // no open window
  sync.on_packet(0, packet_from(0, 2.0), ctx);
  const auto second = *sync.next_deadline();
  EXPECT_GE(second, first);  // a fresh window for the new batch
  ASSERT_EQ(sync.drain_ready(second, ctx).size(), 1u);
}

// ---- null ----------------------------------------------------------------------

TEST(NullSync, DeliversEachPacketAlone) {
  FilterContext ctx = context_with_children(3);
  NullSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  sync.on_packet(2, packet_from(2, 2.0), ctx);
  const auto batches = sync.drain_ready(now_ns(), ctx);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 1u);
  EXPECT_EQ(batches[1].size(), 1u);
}

TEST(NullSync, FlushDrains) {
  FilterContext ctx = context_with_children(1);
  NullSync sync(ctx);
  sync.on_packet(0, packet_from(0, 1.0), ctx);
  EXPECT_EQ(sync.flush(ctx).size(), 1u);
  EXPECT_TRUE(sync.flush(ctx).empty());
}

}  // namespace
}  // namespace tbon
