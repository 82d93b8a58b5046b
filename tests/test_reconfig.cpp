// Planned reconfiguration subsystem tests (src/core/reconfig.hpp).
//
// Unit level: the TopologyDelta builder, ReconfigResult status aggregation,
// and the PlacementPolicy implementations — all network-free by design.
//
// Acceptance level: every ReconfigOp kind applied to live trees, then a
// churn soak — joins, leaves, splits, merges and moves interleaved with a
// running aggregation stream — asserting the two invariants the protocol
// promises (docs/reconfiguration.md):
//  (a) exact sums: every wave closed after an operation equals the precise
//      aggregate over the members at that moment (we use the tree-exact
//      `wavg` filter, payload "vf64 u64" = sums + weight, whose full-tree
//      result is invariant under re-shaping), and
//  (b) per-stream FIFO: results surface strictly in wave order — in the
//      lockstep threaded tests the *very next* receive must be the exact
//      wave, with no partial, duplicated, or reordered result ahead of it.
// The soak runs in all three instantiations; process/remote joins attach at
// the root (the only runtime sharing the front-end's address space there).
// NOTE: ROADMAP's CI sanitizer matrix (ASan/UBSan) is aspirational — ctest
// has no sanitizer variants, so these run under the default toolchain flags.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "core/reconfig.hpp"
#include "filters/register.hpp"
#include "filters/time_aligned.hpp"
#include "modes.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

// ---- typed API units --------------------------------------------------------

TEST(ReconfigTypes, TopologyDeltaBuildsOrderedOps) {
  TopologyDelta delta;
  EXPECT_TRUE(delta.empty());
  delta.add_leaf().add_leaf(3).remove_leaf(7).split(1).merge(2, 5).move_subtree(4, 2);
  EXPECT_FALSE(delta.empty());
  ASSERT_EQ(delta.size(), 6u);

  const auto& ops = delta.ops();
  EXPECT_EQ(ops[0], (ReconfigOp{ReconfigOpKind::kAddLeaf, kAutoPlacement, kAutoPlacement, 0}));
  EXPECT_EQ(ops[1], (ReconfigOp{ReconfigOpKind::kAddLeaf, 3, kAutoPlacement, 0}));
  EXPECT_EQ(ops[2], (ReconfigOp{ReconfigOpKind::kRemoveLeaf, kAutoPlacement, kAutoPlacement, 7}));
  EXPECT_EQ(ops[3], (ReconfigOp{ReconfigOpKind::kSplit, 1, kAutoPlacement, 0}));
  EXPECT_EQ(ops[4], (ReconfigOp{ReconfigOpKind::kMerge, 2, 5, 0}));
  EXPECT_EQ(ops[5], (ReconfigOp{ReconfigOpKind::kMoveSubtree, 4, 2, 0}));
}

TEST(ReconfigTypes, ResultStatusAggregation) {
  ReconfigResult result;
  EXPECT_EQ(result.status(), ReconfigStatus::kOk);  // vacuously: nothing failed
  ReconfigOpResult good;
  good.ok = true;
  result.add(good);
  EXPECT_TRUE(result.ok());

  ReconfigOpResult bad;
  bad.ok = false;
  bad.message = "nope";
  result.add(bad);
  EXPECT_EQ(result.status(), ReconfigStatus::kPartial);
  EXPECT_FALSE(result.ok());

  ReconfigResult all_failed;
  all_failed.add(bad);
  all_failed.add(bad);
  EXPECT_EQ(all_failed.status(), ReconfigStatus::kFailed);
  ASSERT_EQ(all_failed.ops().size(), 2u);
  EXPECT_EQ(all_failed.ops()[0].message, "nope");
}

TEST(ReconfigTypes, LoadBalancedPolicyPicksLeastLoaded) {
  LoadBalancedPolicy policy;
  EXPECT_EQ(policy.choose_parent({}), kAutoPlacement);

  const std::vector<NodeLoad> candidates = {
      {.node = 1, .fan_in = 4, .exec_queue_depth = 0, .inbox_depth = 0},
      {.node = 2, .fan_in = 2, .exec_queue_depth = 9, .inbox_depth = 0},
      {.node = 3, .fan_in = 2, .exec_queue_depth = 1, .inbox_depth = 8},
      {.node = 4, .fan_in = 2, .exec_queue_depth = 1, .inbox_depth = 3},
  };
  // Lexicographic (fan_in, queue, inbox, node): 4 beats 3 on inbox depth.
  EXPECT_EQ(policy.choose_parent(candidates), 4u);

  // Full tie: the lowest node id wins, deterministically.
  const std::vector<NodeLoad> tied = {{.node = 7}, {.node = 5}, {.node = 6}};
  EXPECT_EQ(policy.choose_parent(tied), 5u);
}

TEST(ReconfigTypes, ManualPolicyScriptedThenFallback) {
  ManualPolicy policy({9, 4});
  const std::vector<NodeLoad> candidates = {{.node = 2}, {.node = 3}};
  EXPECT_EQ(policy.choose_parent(candidates), 9u);  // scripted, load ignored
  EXPECT_EQ(policy.choose_parent(candidates), 4u);
  EXPECT_EQ(policy.choose_parent(candidates), 2u);  // script spent: first candidate
  EXPECT_EQ(policy.choose_parent({}), kAutoPlacement);

  ReconfigOptions options;
  options.split_fan_in = 1;  // would fire for the default propose
  EXPECT_FALSE(ManualPolicy({}).propose(candidates, options).has_value());
}

TEST(ReconfigTypes, DefaultProposeRespectsThresholds) {
  LoadBalancedPolicy policy;
  ReconfigOptions options;  // both gauges 0: rebalancing dormant
  const std::vector<NodeLoad> loads = {
      {.node = 0, .fan_in = 1, .exec_queue_depth = 50, .inbox_depth = 0},
      {.node = 1, .fan_in = 4, .exec_queue_depth = 0, .inbox_depth = 0},
  };
  EXPECT_FALSE(policy.propose(loads, options).has_value());

  options.split_fan_in = 4;
  const auto delta = policy.propose(loads, options);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ(delta->ops()[0].kind, ReconfigOpKind::kSplit);
  EXPECT_EQ(delta->ops()[0].node, 1u);

  // A saturated executor queue proposes a split too — but never for a node
  // with fewer than two children (nothing to migrate).
  options.split_fan_in = 0;
  options.split_queue_depth = 10;
  EXPECT_FALSE(policy.propose(loads, options).has_value());  // node 0: fan_in 1
  const std::vector<NodeLoad> hot_queue = {
      {.node = 2, .fan_in = 2, .exec_queue_depth = 50, .inbox_depth = 0}};
  const auto queue_delta = policy.propose(hot_queue, options);
  ASSERT_TRUE(queue_delta.has_value());
  EXPECT_EQ(queue_delta->ops()[0].node, 2u);
}

// ---- tree-exact wave helpers (see test_recovery.cpp) ------------------------

/// One back-end contribution to a wavg stream: sums = {rank + 1}, weight 1.
void send_wave(BackEnd& be, std::uint32_t stream_id) {
  be.send(stream_id, kTag, "vf64 u64",
          {std::vector<double>{static_cast<double>(be.rank()) + 1.0},
           std::uint64_t{1}});
}

/// Exact expected sum for ranks [0, n): sum of (rank + 1).
double full_sum(std::size_t n) { return static_cast<double>(n * (n + 1)) / 2.0; }

/// Lockstep wave for the threaded tests: every live back-end contributes,
/// then the *very next* upstream result must be the exact aggregate.  Strict
/// reception doubles as the per-stream FIFO check — no partial, duplicated,
/// or reordered wave may surface ahead of it.
void expect_exact_wave(Stream& stream, const std::vector<BackEnd*>& live) {
  double expected = 0.0;
  for (BackEnd* be : live) {
    send_wave(*be, stream.id());
    expected += static_cast<double>(be->rank()) + 1.0;
  }
  const auto result = stream.recv_for(20s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_u64(1), live.size());
  EXPECT_DOUBLE_EQ((*result)->get_vf64(0)[0], expected);
}

/// Continuous-pump steady-state check for the process/remote soaks: drain
/// transition waves (the join/leave window mixes memberships) until one
/// matches (weight, sum) exactly, then require the next `confirm` waves to
/// match too — once membership settles, every wave must be exact and in
/// order.  Fails the test on deadline.
void await_steady(Stream& stream, std::uint64_t weight, double sum,
                  int confirm = 2) {
  const auto until = std::chrono::steady_clock::now() + 60s;
  bool reached = false;
  while (std::chrono::steady_clock::now() < until) {
    const auto result = stream.recv_for(200ms);
    if (!result) continue;
    if ((*result)->get_u64(1) == weight &&
        (*result)->get_vf64(0)[0] == sum) {
      reached = true;
      break;
    }
  }
  ASSERT_TRUE(reached) << "no exact wave of weight " << weight;
  for (int i = 0; i < confirm; ++i) {
    const auto result = stream.recv_for(20s);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ((*result)->get_u64(1), weight);
    EXPECT_DOUBLE_EQ((*result)->get_vf64(0)[0], sum);
  }
}

// ---- threaded acceptance ----------------------------------------------------

TEST(ReconfigThreaded, AddLeafAutoPlacementUsesPolicy) {
  NetworkOptions options;
  options.topology = Topology::balanced(2, 2);
  options.reconfig.policy = std::make_shared<ManualPolicy>(std::vector<NodeId>{2});
  auto net = Network::create(options);
  Stream& stream = net->front_end().open_stream({.up_transform = "wavg"});

  const ReconfigResult result =
      net->front_end().reconfigure(TopologyDelta().add_leaf());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ops().size(), 1u);
  EXPECT_EQ(result.ops()[0].resolved_target, 2u);  // the scripted target
  EXPECT_EQ(result.ops()[0].new_rank, 4u);

  std::vector<BackEnd*> live;
  for (std::uint32_t rank = 0; rank < 5; ++rank) live.push_back(&net->backend(rank));
  expect_exact_wave(stream, live);
  net->shutdown();
}

TEST(ReconfigThreaded, MixedDeltaReportsPartialStatus) {
  auto net = Network::create({.topology = Topology::flat(2)});
  const NodeId leaf = net->topology().leaves()[0];
  const ReconfigResult result = net->front_end().reconfigure(
      TopologyDelta().add_leaf(0).add_leaf(leaf).remove_leaf(99));
  EXPECT_EQ(result.status(), ReconfigStatus::kPartial);
  ASSERT_EQ(result.ops().size(), 3u);
  EXPECT_TRUE(result.ops()[0].ok);
  EXPECT_EQ(result.ops()[0].new_rank, 2u);
  EXPECT_EQ(result.ops()[0].resolved_target, 0u);
  EXPECT_FALSE(result.ops()[1].ok);  // cannot attach under a back-end
  EXPECT_FALSE(result.ops()[1].message.empty());
  EXPECT_FALSE(result.ops()[2].ok);  // unknown rank
  EXPECT_FALSE(result.ops()[2].message.empty());

  const NodeMetricsSnapshot root = net->node_metrics(0);
  EXPECT_EQ(root.reconfig_ops, 3u);
  EXPECT_EQ(root.reconfig_ops_failed, 2u);
  EXPECT_EQ(root.reconfig_joins, 1u);
  net->shutdown();
}

TEST(ReconfigThreaded, RemoveDynamicLeafRestoresExactSums) {
  auto net = Network::create({.topology = Topology::flat(2)});
  FrontEnd& fe = net->front_end();
  Stream& stream = fe.open_stream({.up_transform = "wavg"});

  const ReconfigResult joined = fe.reconfigure(TopologyDelta().add_leaf(0));
  ASSERT_TRUE(joined.ok());
  const std::uint32_t newcomer = joined.ops()[0].new_rank;
  expect_exact_wave(stream, {&net->backend(0), &net->backend(1), &net->backend(newcomer)});

  ASSERT_TRUE(fe.reconfigure(TopologyDelta().remove_leaf(newcomer)).ok());
  expect_exact_wave(stream, {&net->backend(0), &net->backend(1)});

  // A departed rank is gone for good (never reused, never removable twice).
  const ReconfigResult again = fe.reconfigure(TopologyDelta().remove_leaf(newcomer));
  EXPECT_EQ(again.status(), ReconfigStatus::kFailed);
  net->shutdown();
}

TEST(ReconfigThreaded, RemoveStaticLeafCompensatesMembership) {
  auto net = Network::create({.topology = Topology::flat(3)});
  FrontEnd& fe = net->front_end();
  Stream& stream = fe.open_stream({.up_transform = "wavg"});
  expect_exact_wave(stream, {&net->backend(0), &net->backend(1), &net->backend(2)});

  ASSERT_TRUE(fe.reconfigure(TopologyDelta().remove_leaf(2)).ok());
  // The detach ack told the departing back-end to stop before it climbed.
  EXPECT_TRUE(net->backend(2).shutting_down());

  // wait_for_all degraded to the survivors: the next wave closes without the
  // departed contributor and is still exact.
  expect_exact_wave(stream, {&net->backend(0), &net->backend(1)});

  const ReconfigResult again = fe.reconfigure(TopologyDelta().remove_leaf(2));
  EXPECT_EQ(again.status(), ReconfigStatus::kFailed);
  EXPECT_NE(again.ops()[0].message.find("already detached"), std::string::npos);
  net->shutdown();
}

TEST(ReconfigThreaded, MoveSubtreeRehomesLeaf) {
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  FrontEnd& fe = net->front_end();
  Stream& stream = fe.open_stream({.up_transform = "wavg"});
  const NodeId mover = net->topology().node(1).children[0];  // serves rank 0

  const ReconfigResult result = fe.reconfigure(TopologyDelta().move_subtree(mover, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ops()[0].resolved_target, 2u);
  EXPECT_EQ(net->effective_parent(mover), 2u);
  EXPECT_EQ(net->node_metrics(mover).reconfig_moves, 1u);

  std::vector<BackEnd*> live;
  for (std::uint32_t rank = 0; rank < 4; ++rank) live.push_back(&net->backend(rank));
  expect_exact_wave(stream, live);

  // Peer routes were re-pointed along both parent chains.
  net->backend(0).send_to(3, kTag, "str", {std::string("hi")});
  const auto message = net->backend(3).recv_peer_for(5s);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ((*message)->src_rank(), 0u);
  net->shutdown();
}

TEST(ReconfigThreaded, MoveSubtreeRejectsBadTargets) {
  auto net = Network::create({.topology = Topology::balanced(2, 3)});
  const Topology& topo = net->topology();
  const NodeId inner = topo.node(1).children[0];  // interior inside subtree(1)
  ASSERT_FALSE(topo.is_leaf(inner));
  const NodeId leaf = topo.leaves()[0];

  const ReconfigResult result = net->front_end().reconfigure(
      TopologyDelta()
          .move_subtree(topo.root(), 2)  // the root cannot move
          .move_subtree(1, leaf)         // a back-end cannot adopt
          .move_subtree(1, 1)            // self
          .move_subtree(1, inner));      // would create a cycle
  EXPECT_EQ(result.status(), ReconfigStatus::kFailed);
  ASSERT_EQ(result.ops().size(), 4u);
  for (const ReconfigOpResult& r : result.ops()) {
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.message.empty());
  }
  EXPECT_NE(result.ops()[3].message.find("inside the moving subtree"),
            std::string::npos);
  net->shutdown();
}

TEST(ReconfigThreaded, SplitMigratesHalfToTarget) {
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  FrontEnd& fe = net->front_end();
  Stream& stream = fe.open_stream({.up_transform = "wavg"});
  const std::vector<NodeId> kids = net->topology().node(1).children;
  ASSERT_EQ(kids.size(), 2u);

  const ReconfigResult result = fe.reconfigure(TopologyDelta().split(1, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ops()[0].resolved_target, 2u);
  // The first half stays put; the second half re-homed under the target.
  EXPECT_EQ(net->effective_parent(kids[0]), 1u);
  EXPECT_EQ(net->effective_parent(kids[1]), 2u);
  EXPECT_EQ(net->node_metrics(0).reconfig_splits, 1u);

  std::vector<BackEnd*> live;
  for (std::uint32_t rank = 0; rank < 4; ++rank) live.push_back(&net->backend(rank));
  expect_exact_wave(stream, live);
  net->shutdown();
}

TEST(ReconfigThreaded, MergeDrainsInteriorAndKeepsBroadcastReachability) {
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  FrontEnd& fe = net->front_end();
  Stream& stream = fe.open_stream({.up_transform = "wavg"});
  const std::vector<NodeId> kids = net->topology().node(1).children;

  const ReconfigResult result = fe.reconfigure(TopologyDelta().merge(1, 2));
  ASSERT_TRUE(result.ok());
  for (const NodeId kid : kids) EXPECT_EQ(net->effective_parent(kid), 2u);
  EXPECT_EQ(net->node_metrics(0).reconfig_merges, 1u);

  std::vector<BackEnd*> live;
  for (std::uint32_t rank = 0; rank < 4; ++rank) live.push_back(&net->backend(rank));
  expect_exact_wave(stream, live);

  // Downstream multicast still reaches every back-end through the new edges
  // (the emptied interior is an idle relay with no members below it).
  stream.send(kTag, "str", {std::string("ping")});
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    const auto packet = net->backend(rank).recv_for(10s);
    ASSERT_TRUE(packet.has_value()) << "rank " << rank << " unreachable";
    EXPECT_EQ((*packet)->get_str(0), "ping");
  }
  net->shutdown();
}

TEST(ReconfigThreaded, MaybeRebalanceSplitsOnGaugeThenCoolsDown) {
  auto net = Network::create({
      .topology = Topology::balanced(2, 2),
      .reconfig = {.split_fan_in = 2, .cooldown_ms = 60'000},
  });
  FrontEnd& fe = net->front_end();
  Stream& stream = fe.open_stream({.up_transform = "wavg"});

  // Every interior has fan-in 2 >= the threshold; the default propose flags
  // the first saturated one (the root) and splits it: half of its children
  // (one interior) re-homes under the least-loaded other interior.
  const auto result = fe.maybe_rebalance();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok());
  ASSERT_EQ(result->ops().size(), 1u);
  EXPECT_EQ(result->ops()[0].op.kind, ReconfigOpKind::kSplit);
  EXPECT_EQ(result->ops()[0].op.node, 0u);
  EXPECT_EQ(net->effective_parent(2), 1u);

  // The gauge is still saturated elsewhere, but the cooldown paces churn.
  EXPECT_FALSE(fe.maybe_rebalance().has_value());

  std::vector<BackEnd*> live;
  for (std::uint32_t rank = 0; rank < 4; ++rank) live.push_back(&net->backend(rank));
  expect_exact_wave(stream, live);
  net->shutdown();
}

TEST(ReconfigThreaded, ChurnSoakExactSumsAndFifo) {
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  FrontEnd& fe = net->front_end();
  Stream& stream = fe.open_stream({.up_transform = "wavg"});
  const std::vector<NodeId> kids = net->topology().node(1).children;

  std::vector<BackEnd*> live;
  for (std::uint32_t rank = 0; rank < 4; ++rank) live.push_back(&net->backend(rank));
  const auto drop_rank = [&](std::uint32_t rank) {
    std::erase_if(live, [&](BackEnd* be) { return be->rank() == rank; });
  };

  expect_exact_wave(stream, live);  // intact tree baseline

  // Join under each interior, a wave between each mutation.
  ReconfigResult r = fe.reconfigure(TopologyDelta().add_leaf(1));
  ASSERT_TRUE(r.ok());
  live.push_back(&net->backend(r.ops()[0].new_rank));  // rank 4 under node 1
  expect_exact_wave(stream, live);

  r = fe.reconfigure(TopologyDelta().add_leaf(2));
  ASSERT_TRUE(r.ok());
  live.push_back(&net->backend(r.ops()[0].new_rank));  // rank 5 under node 2
  expect_exact_wave(stream, live);

  // Split the (now 3-child) interior 1: its dynamic child re-homes under 2.
  ASSERT_TRUE(fe.reconfigure(TopologyDelta().split(1, 2)).ok());
  expect_exact_wave(stream, live);

  // Planned move of a static leaf, then a planned departure of the first
  // dynamic joiner, then a merge that empties interior 1 entirely.
  ASSERT_TRUE(fe.reconfigure(TopologyDelta().move_subtree(kids[0], 2)).ok());
  expect_exact_wave(stream, live);

  ASSERT_TRUE(fe.reconfigure(TopologyDelta().remove_leaf(4)).ok());
  drop_rank(4);
  expect_exact_wave(stream, live);

  ASSERT_TRUE(fe.reconfigure(TopologyDelta().merge(1, 2)).ok());
  expect_exact_wave(stream, live);

  // Planned departure of a *static* back-end (now living under node 2).
  ASSERT_TRUE(fe.reconfigure(TopologyDelta().remove_leaf(0)).ok());
  drop_rank(0);
  expect_exact_wave(stream, live);

  // A few more join/leave rounds against the reshaped tree — the emptied
  // interior is a valid attach point again.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    r = fe.reconfigure(TopologyDelta().add_leaf(1).add_leaf(2));
    ASSERT_TRUE(r.ok());
    const std::uint32_t a = r.ops()[0].new_rank;
    const std::uint32_t b = r.ops()[1].new_rank;
    live.push_back(&net->backend(a));
    live.push_back(&net->backend(b));
    expect_exact_wave(stream, live);
    ASSERT_TRUE(fe.reconfigure(TopologyDelta().remove_leaf(a).remove_leaf(b)).ok());
    drop_rank(a);
    drop_rank(b);
    expect_exact_wave(stream, live);
  }
  net->shutdown();
}

// ---- the fence carries buffered data ---------------------------------------
//
// With batching on, what an application sent may still sit in its leaf's
// coalescer when a planned move or removal fences the leaf.  The fence must
// carry it: every packet arrives once, in order.  Null sync keeps each packet
// its own result, so order is observable per packet.

/// Threaded balanced(2,2) with batching and a 64-credit window.
std::unique_ptr<Network> batched_net() {
  return Network::create({.topology = Topology::balanced(2, 2),
                          .flow_control = {.enabled = true, .capacity = 64},
                          .batching = BatchingOptions::on()});
}

void send_values(BackEnd& be, std::uint32_t stream_id, std::int64_t first,
                 std::int64_t last) {
  for (std::int64_t value = first; value < last; ++value) {
    be.send(stream_id, kTag, "i64", {value});
  }
}

/// The next results are exactly values [first, last), in order.
void expect_values(Stream& stream, std::int64_t first, std::int64_t last) {
  for (std::int64_t value = first; value < last; ++value) {
    const auto result = stream.recv_for(10s);
    ASSERT_TRUE(result.has_value()) << "value " << value << " never arrived";
    ASSERT_EQ((*result)->get_i64(0), value);
  }
}

/// Nothing further (no duplicate) arrives.
void expect_no_more(Stream& stream) {
  const auto extra = stream.recv_for(200ms);
  EXPECT_FALSE(extra.has_value()) << "unexpected extra value " << (*extra)->get_i64(0);
}

TEST(ReconfigThreaded, MoveCarriesPacketsBufferedAtTheFence) {
  auto net = batched_net();
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  BackEnd& be = net->backend(0);
  send_values(be, stream.id(), 0, 5);
  const NodeId leaf = net->topology().leaves()[0];
  ASSERT_TRUE(net->front_end().reconfigure(TopologyDelta().move_subtree(leaf, 2)).ok());
  send_values(be, stream.id(), 5, 10);
  expect_values(stream, 0, 10);
  expect_no_more(stream);
  net->shutdown();
}

TEST(ReconfigThreaded, RemoveLeafCarriesPacketsBufferedAtTheFence) {
  auto net = batched_net();
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  send_values(net->backend(0), stream.id(), 0, 5);
  ASSERT_TRUE(net->front_end().reconfigure(TopologyDelta().remove_leaf(0)).ok());
  expect_values(stream, 0, 5);
  expect_no_more(stream);
  net->shutdown();
}

TEST(ReconfigThreaded, DynamicLeafMovesAndLeavesWithItsBufferedPackets) {
  auto net = batched_net();
  FrontEnd& fe = net->front_end();
  Stream& stream = fe.open_stream({.up_sync = "null"});
  const ReconfigResult joined = fe.reconfigure(TopologyDelta().add_leaf(1));
  ASSERT_TRUE(joined.ok());
  BackEnd& be = net->backend(joined.ops()[0].new_rank);

  // Split moves the newcomer (node 1's last child) under node 2; merge then
  // moves it back.  Each batch of sends lands just before a fence.
  send_values(be, stream.id(), 0, 5);
  ASSERT_TRUE(fe.reconfigure(TopologyDelta().split(1, 2)).ok());
  expect_values(stream, 0, 5);
  send_values(be, stream.id(), 5, 10);
  ASSERT_TRUE(fe.reconfigure(TopologyDelta().merge(2, 1)).ok());
  expect_values(stream, 5, 10);
  send_values(be, stream.id(), 10, 15);
  ASSERT_TRUE(fe.reconfigure(TopologyDelta().remove_leaf(be.rank())).ok());
  expect_values(stream, 10, 15);
  expect_no_more(stream);
  net->shutdown();
}

// ---- time-aligned attach-mid-wave regression --------------------------------

// A join must never stall a bucket that was already in flight: the newcomer
// never saw it, so its expectation stays snapshotted at the membership the
// bucket opened with (src/filters/time_aligned.cpp).
TEST(ReconfigTimeAligned, GrowthKeepsInflightExpectation) {
  FilterContext ctx;
  ctx.num_children = 2;
  TimeAlignedFilter filter(ctx);
  std::vector<PacketPtr> out;

  const PacketPtr first[] = {Packet::make(
      1, kTag, 0, TimeAlignedFilter::kFormat, {std::uint64_t{7}, std::vector<double>{1.0}})};
  filter.filter(first, out, ctx);
  EXPECT_TRUE(out.empty());  // 1 of 2

  // A third child joins while bucket 7 is in flight.
  filter.membership_changed(MembershipChange{2, true, 3}, out, ctx);
  EXPECT_TRUE(out.empty());

  const PacketPtr second[] = {Packet::make(
      1, kTag, 1, TimeAlignedFilter::kFormat, {std::uint64_t{7}, std::vector<double>{2.0}})};
  filter.filter(second, out, ctx);
  ASSERT_EQ(out.size(), 1u);  // completes at the snapshotted expectation of 2
  EXPECT_EQ(out[0]->get_u64(0), 7u);
  EXPECT_DOUBLE_EQ(out[0]->get_vf64(1)[0], 3.0);
  out.clear();

  // A bucket opened after the join expects all three contributors.
  for (std::uint32_t child = 0; child < 3; ++child) {
    const PacketPtr next[] = {Packet::make(
        1, kTag, child, TimeAlignedFilter::kFormat,
        {std::uint64_t{8}, std::vector<double>{static_cast<double>(child + 1)}})};
    filter.filter(next, out, ctx);
    if (child < 2) {
      EXPECT_TRUE(out.empty());
    }
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->get_u64(0), 8u);
  EXPECT_DOUBLE_EQ(out[0]->get_vf64(1)[0], 6.0);
}

TEST(ReconfigTimeAligned, AttachMidWaveDoesNotStallBuckets) {
  filters::register_all(FilterRegistry::instance());
  auto net = Network::create({.topology = Topology::flat(2)});
  FrontEnd& fe = net->front_end();
  Stream& stream = fe.open_stream({.up_transform = "time_aligned", .up_sync = "null"});

  // Bucket 1 opens with the original membership of 2...
  net->backend(0).send(stream.id(), kTag, TimeAlignedFilter::kFormat,
                       {std::uint64_t{1}, std::vector<double>{1.0}});
  // ...then a back-end joins mid-bucket (its attach marker queues behind the
  // contribution above on the root's FIFO inbox, so the order is fixed).
  const ReconfigResult joined = fe.reconfigure(TopologyDelta().add_leaf(0));
  ASSERT_TRUE(joined.ok());
  BackEnd& late = net->backend(joined.ops()[0].new_rank);

  // The second original contribution completes bucket 1 at its snapshotted
  // expectation — without the snapshot the bucket would hang waiting for a
  // newcomer that never sampled it, desyncing the whole stream.
  net->backend(1).send(stream.id(), kTag, TimeAlignedFilter::kFormat,
                       {std::uint64_t{1}, std::vector<double>{2.0}});
  auto result = stream.recv_for(20s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_u64(0), 1u);
  EXPECT_DOUBLE_EQ((*result)->get_vf64(1)[0], 3.0);

  // Bucket 2 opens after the join and needs all three contributors.
  net->backend(0).send(stream.id(), kTag, TimeAlignedFilter::kFormat,
                       {std::uint64_t{2}, std::vector<double>{1.0}});
  net->backend(1).send(stream.id(), kTag, TimeAlignedFilter::kFormat,
                       {std::uint64_t{2}, std::vector<double>{2.0}});
  late.send(stream.id(), kTag, TimeAlignedFilter::kFormat,
            {std::uint64_t{2}, std::vector<double>{4.0}});
  result = stream.recv_for(20s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_u64(0), 2u);
  EXPECT_DOUBLE_EQ((*result)->get_vf64(1)[0], 7.0);
  net->shutdown();
}

// ---- telemetry aggregation --------------------------------------------------

TEST(ReconfigTelemetry, CountersAggregateTreeWide) {
  auto net = Network::create({
      .topology = Topology::balanced(2, 2),
      .telemetry = {.enabled = true, .interval_ms = 25},
  });
  FrontEnd& fe = net->front_end();
  const NodeId mover = net->topology().node(1).children[0];

  ReconfigResult r = fe.reconfigure(TopologyDelta().add_leaf(1).add_leaf(2));
  ASSERT_TRUE(r.ok());
  const std::uint32_t dynamic_rank = r.ops()[0].new_rank;
  ASSERT_TRUE(fe.reconfigure(TopologyDelta().remove_leaf(dynamic_rank)).ok());
  ASSERT_TRUE(fe.reconfigure(TopologyDelta().move_subtree(mover, 2)).ok());
  EXPECT_EQ(fe.reconfigure(TopologyDelta().remove_leaf(99)).status(),
            ReconfigStatus::kFailed);

  // The final flush ahead of the shutdown acks freezes exact counters.
  net->shutdown();
  const TreeMetricsSnapshot tree = fe.metrics();
  EXPECT_EQ(tree.total.reconfig_ops, 5u);
  EXPECT_EQ(tree.total.reconfig_ops_failed, 1u);
  EXPECT_EQ(tree.total.reconfig_joins, 2u);
  // One planned departure + the quiesce fence of the move, both applied at
  // the parent interior — aggregation must pick them up off the root.
  EXPECT_EQ(tree.total.reconfig_detaches, 2u);
  EXPECT_EQ(tree.total.reconfig_moves, 1u);
  EXPECT_EQ(tree.total.reconfig_splits, 0u);
  const NodeTelemetry* interior = tree.find(1);
  ASSERT_NE(interior, nullptr);
  EXPECT_EQ(interior->reconfig_detaches, 2u);
}

// ---- churn soak, every instantiation -----------------------------------------

/// Static back-end body for the churn soak: pump waves until told to stop
/// (ProtocolError from a send racing shutdown is expected).
void pump_waves(BackEnd& be) {
  try {
    while (!be.shutting_down()) {
      send_wave(be, 1);
      (void)be.recv_for(5ms);  // paces the loop; drains broadcasts
    }
  } catch (const std::exception&) {
  }
}

/// Statics pump a wavg stream continuously while dynamic back-ends join at
/// the root, contribute, and leave again — steady-state waves must be exact
/// around every change.
class ReconfigChurn : public modes::Test {};

TEST_P(ReconfigChurn, JoinsAndLeavesKeepExactSums) {
  auto owner = create({.topology = Topology::flat(3), .backend_main = pump_waves});
  Network& net = *owner;
  EXPECT_EQ(net.is_process_mode(), mode() == NetworkMode::kProcess);
  EXPECT_EQ(net.is_remote_mode(), mode() == NetworkMode::kRemote);
  FrontEnd& fe = net.front_end();
  Stream& stream = fe.open_stream({.up_transform = "wavg"});
  ASSERT_EQ(stream.id(), 1u);
  await_steady(stream, 3, full_sum(3));

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const ReconfigResult joined = fe.reconfigure(TopologyDelta().add_leaf());
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(joined.ops()[0].resolved_target, net.topology().root());
    BackEnd& newcomer = net.backend(joined.ops()[0].new_rank);

    std::atomic<bool> stop{false};
    std::thread pump([&] {
      try {
        while (!stop.load()) {
          send_wave(newcomer, 1);
          std::this_thread::sleep_for(2ms);
        }
      } catch (const std::exception&) {
      }
    });
    const double with_newcomer =
        full_sum(3) + static_cast<double>(newcomer.rank()) + 1.0;
    await_steady(stream, 4, with_newcomer);

    // The caller contract: quiesce the application before a planned leave.
    stop = true;
    pump.join();
    ASSERT_TRUE(fe.reconfigure(TopologyDelta().remove_leaf(newcomer.rank())).ok());
    await_steady(stream, 3, full_sum(3));
  }
  net.shutdown();
}

TBON_INSTANTIATE_MODES(ReconfigChurn);

// Interior rebalancing needs runtimes the engine can rewire in-process;
// the process/remote instantiations reject it with a typed failure instead
// of wedging the tree.
TEST(ReconfigProcess, SplitAndMergeAreTypedFailures) {
  auto net = Network::create({
      .mode = NetworkMode::kProcess,
      .topology = Topology::balanced(2, 2),
      .backend_main = [](BackEnd&) {},
  });
  const ReconfigResult result =
      net->front_end().reconfigure(TopologyDelta().split(1).merge(2));
  EXPECT_EQ(result.status(), ReconfigStatus::kFailed);
  for (const ReconfigOpResult& r : result.ops()) {
    EXPECT_NE(r.message.find("threaded-mode only"), std::string::npos);
  }
  const NodeMetricsSnapshot root = net->node_metrics(0);
  EXPECT_EQ(root.reconfig_ops, 2u);
  EXPECT_EQ(root.reconfig_ops_failed, 2u);
  net->shutdown();
}

}  // namespace
}  // namespace tbon
