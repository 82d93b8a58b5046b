// Fault-tolerance & recovery subsystem tests.
//
// Unit level: PeerLiveness (synthetic clocks — no real time), FaultInjector,
// RelinkableLink, the orphan-hello codec and filter membership hooks.
//
// Acceptance level: kill interior nodes of live trees mid-stream, in both
// the threaded and the multi-process instantiations, and assert that
//  (a) every surviving back-end stays reachable (upstream and downstream),
//  (b) wait_for_all streams keep delivering with shrunken membership, and
//  (c) aggregated results over the recovered tree are *exact* — we use the
//      tree-exact `wavg` filter (payload "vf64 u64" = sums + weight), whose
//      full-tree result is invariant under re-shaping, so correctness is a
//      strict equality even though adoption makes the tree uneven.
// Determinism: failures are triggered by explicit kill_node / FaultPlan
// packet counts, and every wait is for a concrete observable event (an
// adoption count, a result of a given weight) with a generous deadline —
// never a bare sleep.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "filters/time_aligned.hpp"
#include "modes.hpp"
#include "recovery/adoption.hpp"
#include "recovery/fault_injector.hpp"
#include "recovery/heartbeat.hpp"
#include "transport/fd.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;

constexpr std::int32_t kTag = kFirstAppTag;
constexpr std::int64_t kMs = 1'000'000;  // ns

// ---- PeerLiveness (synthetic time) ------------------------------------------

TEST(PeerLiveness, HeartbeatDueOnlyAfterSendIdleInterval) {
  const HeartbeatConfig config{10 * kMs, 50 * kMs};
  PeerLiveness liveness(config, /*has_parent=*/true, /*num_children=*/2, 0);
  EXPECT_FALSE(liveness.parent_heartbeat_due(9 * kMs));
  EXPECT_TRUE(liveness.parent_heartbeat_due(10 * kMs));
  liveness.note_send_parent(10 * kMs);
  EXPECT_FALSE(liveness.parent_heartbeat_due(19 * kMs));
  EXPECT_EQ(liveness.children_heartbeat_due(9 * kMs).size(), 0u);
  EXPECT_EQ(liveness.children_heartbeat_due(10 * kMs).size(), 2u);
}

TEST(PeerLiveness, SilentPeerTimesOutAndTrafficPostpones) {
  const HeartbeatConfig config{10 * kMs, 50 * kMs};
  PeerLiveness liveness(config, true, 2, 0);
  EXPECT_FALSE(liveness.parent_timed_out(49 * kMs));
  EXPECT_TRUE(liveness.parent_timed_out(50 * kMs));
  // Any received traffic (data, control or heartbeat) is piggybacked proof
  // of life.
  liveness.note_recv_parent(40 * kMs);
  EXPECT_FALSE(liveness.parent_timed_out(89 * kMs));
  EXPECT_TRUE(liveness.parent_timed_out(90 * kMs));

  liveness.note_recv_child(0, 60 * kMs);
  const auto dead = liveness.timed_out_children(70 * kMs);
  ASSERT_EQ(dead.size(), 1u);  // child 1 silent since t=0, child 0 fresh
  EXPECT_EQ(dead[0], 1u);
}

TEST(PeerLiveness, DropAndReacquireChannels) {
  const HeartbeatConfig config{10 * kMs, 50 * kMs};
  PeerLiveness liveness(config, true, 1, 0);
  liveness.drop_child(0);
  EXPECT_TRUE(liveness.timed_out_children(1000 * kMs).empty());
  liveness.ensure_child(3, 100 * kMs);  // dynamic slot, sparse is fine
  EXPECT_EQ(liveness.timed_out_children(149 * kMs).size(), 0u);
  EXPECT_EQ(liveness.timed_out_children(150 * kMs).size(), 1u);

  liveness.drop_parent();
  EXPECT_FALSE(liveness.parent_timed_out(1000 * kMs));
  liveness.reset_parent(200 * kMs);  // re-adopted: clock restarts
  EXPECT_FALSE(liveness.parent_timed_out(249 * kMs));
  EXPECT_TRUE(liveness.parent_timed_out(250 * kMs));
}

TEST(PeerLiveness, NextDeadlineIsEarliestAcrossChannels) {
  const HeartbeatConfig config{10 * kMs, 50 * kMs};
  PeerLiveness liveness(config, true, 1, 0);
  // Every channel: heartbeat due at 10ms, timeout at 50ms -> earliest 10ms.
  ASSERT_TRUE(liveness.next_deadline().has_value());
  EXPECT_EQ(*liveness.next_deadline(), 10 * kMs);
  liveness.note_send_parent(5 * kMs);
  liveness.note_send_child(0, 8 * kMs);
  EXPECT_EQ(*liveness.next_deadline(), 15 * kMs);
  liveness.drop_parent();
  liveness.drop_child(0);
  EXPECT_FALSE(liveness.next_deadline().has_value());
}

TEST(HeartbeatConfig, DisabledUnlessBothParametersSet) {
  EXPECT_FALSE(HeartbeatConfig{}.enabled());
  EXPECT_FALSE((HeartbeatConfig{10 * kMs, 0}).enabled());
  EXPECT_FALSE((HeartbeatConfig{0, 50 * kMs}).enabled());
  EXPECT_TRUE((HeartbeatConfig{10 * kMs, 50 * kMs}).enabled());
}

// ---- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, KillTripsExactlyOnNthDataPacket) {
  FaultInjector injector(FaultPlan{}.kill(3, 4));
  for (int i = 1; i <= 3; ++i) EXPECT_EQ(injector.on_data_packet(3), FaultAction::kNone);
  EXPECT_EQ(injector.on_data_packet(3), FaultAction::kKill);
  EXPECT_EQ(injector.data_packets(3), 4u);
}

TEST(FaultInjector, MutePersistsOnceTripped) {
  FaultInjector injector(FaultPlan{}.mute(1, 2));
  EXPECT_EQ(injector.on_data_packet(1), FaultAction::kNone);
  EXPECT_FALSE(injector.sends_muted(1));
  EXPECT_EQ(injector.on_data_packet(1), FaultAction::kNone);  // mute, not kill
  EXPECT_TRUE(injector.sends_muted(1));
  injector.on_data_packet(1);
  EXPECT_TRUE(injector.sends_muted(1));
}

TEST(FaultInjector, UnplannedNodesAreUntouched) {
  FaultInjector injector(FaultPlan{}.kill(2, 1).delay(4, 5 * kMs));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(injector.on_data_packet(7), FaultAction::kNone);
  EXPECT_FALSE(injector.sends_muted(7));
  EXPECT_EQ(injector.send_delay_ns(7), 0);
  EXPECT_EQ(injector.send_delay_ns(4), 5 * kMs);
}

// ---- RelinkableLink ---------------------------------------------------------

namespace {
/// Test double: a Link that can be switched dead/alive and counts sends.
class ToggleLink final : public Link {
 public:
  explicit ToggleLink(bool alive) : alive_(alive) {}
  bool send(const PacketPtr&) override {
    if (!alive_.load()) return false;
    sent_.fetch_add(1);
    return true;
  }
  void close() override { alive_.store(false); }
  int sent() const { return sent_.load(); }

 private:
  std::atomic<bool> alive_;
  std::atomic<int> sent_{0};
};
}  // namespace

TEST(RelinkableLink, SendRetriesOnTheReplacementChannel) {
  auto dead = std::make_shared<ToggleLink>(false);
  auto live = std::make_shared<ToggleLink>(true);
  RelinkableLink link(dead, /*relink_wait=*/5s);
  const PacketPtr packet = Packet::make(1, kTag, 0, "i64", {std::int64_t{7}});

  std::thread sender([&] { EXPECT_TRUE(link.send(packet)); });
  link.relink(live);  // wakes the blocked sender
  sender.join();
  EXPECT_EQ(live->sent(), 1);
  EXPECT_EQ(dead->sent(), 0);
}

TEST(RelinkableLink, CloseWakesAndFailsBlockedSenders) {
  auto dead = std::make_shared<ToggleLink>(false);
  RelinkableLink link(dead, 30s);
  const PacketPtr packet = Packet::make(1, kTag, 0, "i64", {std::int64_t{7}});
  std::thread sender([&] { EXPECT_FALSE(link.send(packet)); });
  link.close();
  sender.join();
  // Relinking a closed link closes the new channel instead of reviving it.
  auto late = std::make_shared<ToggleLink>(true);
  link.relink(late);
  EXPECT_FALSE(link.send(packet));
}

TEST(OrphanHello, CodecRoundTrip) {
  const OrphanHello hello{42, {0, 3, 7, 15}};
  const OrphanHello decoded = decode_orphan_hello(encode_orphan_hello(hello));
  EXPECT_EQ(decoded.node, 42u);
  EXPECT_EQ(decoded.ranks, hello.ranks);
}

// ---- filter membership hooks ------------------------------------------------

TEST(TimeAlignedMembership, ShrinkEmitsBucketsTheFailureCompleted) {
  FilterContext ctx;
  ctx.num_children = 3;
  TimeAlignedFilter filter(ctx);
  std::vector<PacketPtr> out;
  const auto sample = [&](std::uint64_t bucket, double value) {
    return Packet::make(1, kTag, 0, TimeAlignedFilter::kFormat,
                        {bucket, std::vector<double>{value}});
  };
  const PacketPtr batch[] = {sample(0, 1.0), sample(0, 2.0)};
  filter.filter(batch, out, ctx);
  EXPECT_TRUE(out.empty());  // 2 of 3 contributions: bucket 0 incomplete

  // Child 2 dies; its contribution will never arrive.  The shrink to 2
  // expected children completes bucket 0 immediately.
  ctx.num_children = 2;
  filter.membership_changed(MembershipChange{2, false, 2}, out, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->get_u64(0), 0u);
  EXPECT_DOUBLE_EQ(out[0]->get_vf64(1)[0], 3.0);
}

TEST(TimeAlignedMembership, GrowthRaisesTheBar) {
  FilterContext ctx;
  ctx.num_children = 1;
  TimeAlignedFilter filter(ctx);
  std::vector<PacketPtr> out;
  ctx.num_children = 2;
  filter.membership_changed(MembershipChange{1, true, 2}, out, ctx);
  EXPECT_TRUE(out.empty());
  const PacketPtr one[] = {Packet::make(1, kTag, 0, TimeAlignedFilter::kFormat,
                                        {std::uint64_t{0}, std::vector<double>{1.0}})};
  filter.filter(one, out, ctx);
  EXPECT_TRUE(out.empty());  // now needs 2 contributions per bucket
}

// ---- acceptance helpers -----------------------------------------------------

/// One back-end contribution to a wavg stream: sums = {rank + 1}, weight 1.
void send_wave(BackEnd& be, std::uint32_t stream_id) {
  be.send(stream_id, kTag, "vf64 u64",
          {std::vector<double>{static_cast<double>(be.rank()) + 1.0},
           std::uint64_t{1}});
}

/// Exact expected sum for ranks [0, n): sum of (rank + 1).
double full_sum(std::size_t n) { return static_cast<double>(n * (n + 1)) / 2.0; }

/// Drain `stream` until a result of exactly `weight` arrives; returns its
/// sums[0], or nullopt on deadline.  Results of other weights (partial waves
/// during the recovery window) are ignored.
std::optional<double> await_weight(Stream& stream, std::uint64_t weight,
                                   std::chrono::seconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    const auto result = stream.recv_for(100ms);
    if (!result) continue;
    if ((*result)->get_u64(1) == weight) return (*result)->get_vf64(0)[0];
  }
  return std::nullopt;
}

// ---- threaded acceptance ----------------------------------------------------

/// Kill each interior node of balanced(4,2) in turn, mid-stream: the 4
/// orphaned back-end leaves must be re-adopted by the front-end, upstream
/// aggregation must return to the exact full-tree result, and a downstream
/// broadcast must reach all 16 back-ends.
TEST(RecoveryThreaded, KillAnyInteriorNodeMidStream) {
  const Topology topo = Topology::balanced(4, 2);
  for (NodeId victim = 1; victim <= 4; ++victim) {
    SCOPED_TRACE("victim=" + std::to_string(victim));
    ASSERT_FALSE(topo.is_leaf(victim));
    auto net = Network::create({.topology = topo, .recovery = {.auto_readopt = true}});
    Stream& stream = net->front_end().open_stream(
        {.up_transform = "wavg", .up_sync = "wait_for_all"});

    // Wave 0: the intact tree produces the exact full aggregate.
    for (std::uint32_t rank = 0; rank < 16; ++rank) {
      send_wave(net->backend(rank), stream.id());
    }
    auto sum = await_weight(stream, 16, 20s);
    ASSERT_TRUE(sum.has_value());
    EXPECT_DOUBLE_EQ(*sum, full_sum(16));

    net->kill_node(victim);
    ASSERT_TRUE(net->wait_for_adoptions(4, 20s));
    for (const std::uint32_t rank : topo.subtree_leaf_ranks(victim)) {
      EXPECT_EQ(net->effective_parent(topo.leaves()[rank]), topo.root());
    }

    // Wave 1: all 16 back-ends (12 via surviving interiors, 4 re-adopted
    // directly under the root) — result must be exactly the full aggregate.
    for (std::uint32_t rank = 0; rank < 16; ++rank) {
      send_wave(net->backend(rank), stream.id());
    }
    sum = await_weight(stream, 16, 20s);
    ASSERT_TRUE(sum.has_value());
    EXPECT_DOUBLE_EQ(*sum, full_sum(16));

    // Downstream broadcast reaches every back-end, including adopted ones.
    stream.send(kTag, "str", {std::string("ping")});
    for (std::uint32_t rank = 0; rank < 16; ++rank) {
      const auto packet = net->backend(rank).recv_for(10s);
      ASSERT_TRUE(packet.has_value()) << "rank " << rank << " unreachable";
      EXPECT_EQ((*packet)->get_str(0), "ping");
    }
    net->shutdown();
  }
}

/// Deep tree: killing a depth-1 interior of balanced(2,3) orphans two
/// *interior* nodes, which re-adopt carrying their whole subtrees.
TEST(RecoveryThreaded, InteriorOrphansReadoptWithTheirSubtrees) {
  const Topology topo = Topology::balanced(2, 3);  // 8 leaves, depth 3
  const NodeId victim = 1;
  ASSERT_EQ(topo.node(victim).children.size(), 2u);
  auto net = Network::create({.topology = topo, .recovery = {.auto_readopt = true}});
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});

  for (std::uint32_t rank = 0; rank < 8; ++rank) send_wave(net->backend(rank), stream.id());
  auto sum = await_weight(stream, 8, 20s);
  ASSERT_TRUE(sum.has_value());
  EXPECT_DOUBLE_EQ(*sum, full_sum(8));

  net->kill_node(victim);
  ASSERT_TRUE(net->wait_for_adoptions(2, 20s));
  for (const NodeId orphan : topo.node(victim).children) {
    EXPECT_EQ(net->effective_parent(orphan), topo.root());
  }

  for (std::uint32_t rank = 0; rank < 8; ++rank) send_wave(net->backend(rank), stream.id());
  sum = await_weight(stream, 8, 20s);
  ASSERT_TRUE(sum.has_value());
  EXPECT_DOUBLE_EQ(*sum, full_sum(8));
  net->shutdown();
}

/// Without auto_readopt the legacy semantics hold: the subtree is amputated
/// and wait_for_all keeps delivering with shrunken membership — the result
/// is the exact aggregate over the survivors.
TEST(RecoveryThreaded, ShrunkenMembershipWithoutReadoption) {
  const Topology topo = Topology::balanced(4, 2);
  auto net = Network::create({.topology = topo});  // recovery off
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});
  const NodeId victim = 2;
  net->kill_node(victim);

  const auto lost = topo.subtree_leaf_ranks(victim);
  double expected = full_sum(16);
  for (const std::uint32_t rank : lost) expected -= rank + 1.0;
  for (std::uint32_t rank = 0; rank < 16; ++rank) {
    if (std::find(lost.begin(), lost.end(), rank) != lost.end()) continue;
    send_wave(net->backend(rank), stream.id());
  }
  const auto sum = await_weight(stream, 12, 20s);
  ASSERT_TRUE(sum.has_value());
  EXPECT_DOUBLE_EQ(*sum, expected);
  net->shutdown();
}

/// A hung (muted) interior node never reports EOF: only the heartbeat layer
/// can detect it.  The root must declare it dead, its orphans must rejoin,
/// and the exact full aggregate must eventually reappear.
TEST(RecoveryThreaded, MutedNodeIsDetectedByHeartbeatsAndRoutedAround) {
  const Topology topo = Topology::balanced(4, 2);
  RecoveryOptions recovery;
  recovery.auto_readopt = true;
  recovery.heartbeat_interval_ms = 50;
  recovery.failure_timeout_ms = 300;
  recovery.fault_plan.mute(1, 1);  // node 1 "hangs" at its first data packet
  auto net = Network::create({.topology = topo, .recovery = recovery});
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});

  // Keep waves flowing (constant per-rank values, so every full-weight
  // batch is exact regardless of how waves interleave across the recovery)
  // until the full aggregate reappears via the re-adopted leaves.
  const auto until = std::chrono::steady_clock::now() + 60s;
  bool recovered = false;
  while (!recovered && std::chrono::steady_clock::now() < until) {
    for (std::uint32_t rank = 0; rank < 16; ++rank) {
      send_wave(net->backend(rank), stream.id());
    }
    const auto result = stream.recv_for(100ms);
    if (result && (*result)->get_u64(1) == 16 && net->adoption_count() >= 4) {
      EXPECT_DOUBLE_EQ((*result)->get_vf64(0)[0], full_sum(16));
      recovered = true;
    }
  }
  EXPECT_TRUE(recovered) << "full-weight aggregate never reappeared";
  net->shutdown();
}

TEST(RecoveryThreaded, KilledBackEndFailsSendsAtOnce) {
  // The killed leaf's runtime is gone, so no announcement of a later stream
  // can reach it: its back-end must fail the send promptly and report
  // shutting_down() instead of waiting out the announcement timeout.
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  net->kill_node(net->topology().leaves()[0]);
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  BackEnd& killed = net->backend(0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(killed.send(stream.id(), kTag, "i64", {std::int64_t{1}}),
               ProtocolError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
  EXPECT_TRUE(killed.shutting_down());
  net->shutdown();
}

// ---- fault injection counts packets, batched or not -------------------------
//
// While a fault injector is armed, the runtime splits a coalesced batch back
// into packets, so kill-at-data-packet-N and mute-at-N hit the same packet
// whether or not the wire batches.  balanced(2,2): interior node 1 relays
// rank 0's values 0..15 on a passthrough/null stream (the other ranks send
// nothing), so a fault at its 6th data packet lets exactly 0..4 through.

struct FaultSplitCase {
  NetworkMode mode;
  bool batched;
};

/// Names the case in test listings, its mode last (tests/modes.hpp's
/// printer), so each ctest name ends in /threaded, /process or /remote.
void PrintTo(const FaultSplitCase& param, std::ostream* os) {
  *os << (param.batched ? "batched/" : "unbatched/");
  PrintTo(param.mode, os);
}

/// Values the front-end receives until the stream has been quiet for 500 ms.
std::vector<std::int64_t> deliveries_under(const FaultSplitCase& param,
                                           const RecoveryOptions& recovery) {
  constexpr std::uint32_t kStream = 1;
  auto net = Network::create({.mode = param.mode,
                              .topology = Topology::balanced(2, 2),
                              .recovery = recovery,
                              .batching = param.batched
                                              ? BatchingOptions::on().max_delay(1ms)
                                              : BatchingOptions::off(),
                              .backend_main = [](BackEnd& be) {
                                if (be.rank() != 0) return;
                                try {
                                  for (std::int64_t value = 0; value < 16; ++value) {
                                    be.send(kStream, kTag, "i64", {value});
                                  }
                                } catch (const std::exception&) {
                                  // The parent died under the send: expected
                                  // once the fault trips.
                                }
                              }});
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  EXPECT_EQ(stream.id(), kStream);
  std::vector<std::int64_t> values;
  const auto until = std::chrono::steady_clock::now() + 20s;
  while (std::chrono::steady_clock::now() < until) {
    const auto result = stream.recv_for(500ms);
    if (!result) break;
    values.push_back((*result)->get_i64(0));
  }
  net->shutdown();
  return values;
}

const std::vector<std::int64_t> kFirstFive = {0, 1, 2, 3, 4};

class FaultSplit : public ::testing::TestWithParam<FaultSplitCase> {};

TEST_P(FaultSplit, KillAtSixthPacketDeliversTheFirstFive) {
  RecoveryOptions recovery;
  recovery.fault_plan.kill(1, 6);
  EXPECT_EQ(deliveries_under(GetParam(), recovery), kFirstFive);
}

INSTANTIATE_TEST_SUITE_P(
    BatchedOrNot, FaultSplit,
    ::testing::Values(FaultSplitCase{NetworkMode::kThreaded, false},
                      FaultSplitCase{NetworkMode::kThreaded, true},
                      FaultSplitCase{NetworkMode::kProcess, false},
                      FaultSplitCase{NetworkMode::kProcess, true},
                      FaultSplitCase{NetworkMode::kRemote, false},
                      FaultSplitCase{NetworkMode::kRemote, true}));

TEST(FaultSplitThreaded, MuteAtSixthPacketDeliversTheFirstFive) {
  // Heartbeats let the tree declare the muted node dead; without them,
  // shutdown would wait for its acknowledgement until the timeout.
  RecoveryOptions recovery;
  recovery.heartbeat_interval_ms = 50;
  recovery.failure_timeout_ms = 300;
  recovery.fault_plan.mute(1, 6);
  for (const bool batched : {false, true}) {
    EXPECT_EQ(deliveries_under({NetworkMode::kThreaded, batched}, recovery),
              kFirstFive)
        << (batched ? "batched" : "unbatched");
  }
}

// ---- an orphan without an adopter exits at once -----------------------------
//
// Without re-adoption, a node whose parent died shuts its subtree down.  A
// leaf's parent link in the forked instantiations is a RelinkableLink, whose
// send on a dead channel waits for a relink; the shutdown's last sends
// upward (the final telemetry record and the ack) must not wait for one.

TEST(OrphanedLeaf, ParentEofWithoutAdopterEndsTheRuntimeAtOnce) {
  const Topology topology = Topology::balanced(2, 1);
  NodeRuntime runtime(topology, topology.leaves()[0], FilterRegistry::instance(),
                      /*delegate=*/nullptr);
  // Default relink wait (10 s), over a channel that refuses every send.
  runtime.set_parent_link(
      std::make_unique<RelinkableLink>(std::make_shared<ToggleLink>(false)));
  ASSERT_TRUE(runtime.inbox()->push(Envelope{Origin::kParent, 0, nullptr}));  // EOF
  const auto start = std::chrono::steady_clock::now();
  runtime.run();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
}

namespace {
/// True once every copy of the pipe's write end is closed (read() sees EOF),
/// false if that takes longer than `limit`.
bool wait_for_eof(int read_fd, std::chrono::milliseconds limit) {
  const auto until = std::chrono::steady_clock::now() + limit;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{read_fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char byte = 0;
    if (::read(read_fd, &byte, 1) == 0) return true;
  }
}
}  // namespace

/// Every forked node inherits the write end of a pipe created before the
/// network, so the read end sees EOF once all of them have exited.  After
/// kill(1,6) the leaves under node 1 are orphans without an adopter; they
/// must be gone by the time the network has shut down, not a relink timeout
/// later.
class OrphanedForkedLeaf : public ::testing::TestWithParam<bool> {};

TEST_P(OrphanedForkedLeaf, ExitsBeforeTheNetworkIsGone) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe2(pipe_fds, O_CLOEXEC), 0);
  const Fd read_end(pipe_fds[0]);
  Fd write_end(pipe_fds[1]);
  RecoveryOptions recovery;
  recovery.fault_plan.kill(1, 6);
  EXPECT_EQ(deliveries_under({NetworkMode::kProcess, GetParam()}, recovery), kFirstFive);
  write_end.reset();  // the forked nodes hold the remaining copies
  EXPECT_TRUE(wait_for_eof(read_end.get(), 2s)) << "a forked node outlived the network";
}

INSTANTIATE_TEST_SUITE_P(BatchedOrNot, OrphanedForkedLeaf, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "batched" : "unbatched");
                         });

// ---- multi-process acceptance -----------------------------------------------

namespace {
/// backend_main for the process-mode tests: pump wavg waves with the rank's
/// constant value, answer downstream pings on the echo stream, stop at
/// shutdown.  All communication errors just end the loop (the network is
/// tearing down underneath us).
void pumping_backend(BackEnd& be, std::uint32_t data_stream, std::uint32_t echo_stream) {
  try {
    while (!be.shutting_down()) {
      send_wave(be, data_stream);
      const auto packet = be.recv_for(5ms);  // paces the loop; serves pings
      if (packet && (*packet)->stream_id() == echo_stream) {
        be.send(echo_stream, kTag, "i64", {std::int64_t{1}});
      }
    }
  } catch (const std::exception&) {
    // ProtocolError from a send racing shutdown: expected, just exit.
  }
}
}  // namespace

/// Process-mode: node 1 crashes (via _Exit, no handshakes) deterministically
/// at its 5th data packet; its 4 back-end processes reconnect through the
/// front-end rendezvous port.  Full-weight results must reappear and a
/// downstream broadcast must be answered by all 16 back-ends.
TEST(RecoveryProcess, KilledInteriorProcessOrphansReconnect) {
  constexpr std::uint32_t kDataStream = 1;  // first two streams created below
  constexpr std::uint32_t kEchoStream = 2;
  RecoveryOptions recovery;
  recovery.auto_readopt = true;
  recovery.fault_plan.kill(1, 5);
  auto net = Network::create(
      {.mode = NetworkMode::kProcess,
       .topology = Topology::balanced(4, 2),
       .recovery = recovery,
       .backend_main = [](BackEnd& be) { pumping_backend(be, kDataStream, kEchoStream); }});
  Stream& data = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});
  Stream& echo = net->front_end().open_stream(
      {.up_transform = "sum", .up_sync = "wait_for_all"});
  ASSERT_EQ(data.id(), kDataStream);
  ASSERT_EQ(echo.id(), kEchoStream);

  // Node 1 receives 4 data packets per wave, so it dies mid-wave-2: every
  // full-weight result after the first therefore proves recovery.
  ASSERT_TRUE(net->wait_for_adoptions(4, 30s));
  int full = 0;
  const auto until = std::chrono::steady_clock::now() + 60s;
  while (full < 3 && std::chrono::steady_clock::now() < until) {
    const auto result = data.recv_for(100ms);
    if (result && (*result)->get_u64(1) == 16) {
      EXPECT_DOUBLE_EQ((*result)->get_vf64(0)[0], full_sum(16));
      ++full;
    }
  }
  EXPECT_GE(full, 3) << "full-weight aggregates never resumed after the crash";

  // Downstream reachability: a ping must be answered by all 16 back-ends
  // (sum of 16 ones on the echo stream).  Keep draining the data stream
  // meanwhile so the pumping back-ends never back up the root.
  echo.send(kTag, "str", {std::string("ping")});
  bool echoed = false;
  const auto echo_until = std::chrono::steady_clock::now() + 30s;
  while (!echoed && std::chrono::steady_clock::now() < echo_until) {
    (void)data.recv_for(std::chrono::milliseconds(0));
    const auto reply = echo.recv_for(50ms);
    if (reply) {
      EXPECT_EQ((*reply)->get_i64(0), 16);
      echoed = true;
    }
  }
  EXPECT_TRUE(echoed) << "downstream ping was not answered by all back-ends";
  net->shutdown();
}

/// Process-mode with an explicit kill_node (kTagDie rides the control stream
/// down to the victim) instead of a fault plan.
TEST(RecoveryProcess, ExplicitKillNodeOrphansReadopt) {
  constexpr std::uint32_t kDataStream = 1;
  RecoveryOptions recovery;
  recovery.auto_readopt = true;
  auto net = Network::create(
      {.mode = NetworkMode::kProcess,
       .topology = Topology::balanced(2, 2),
       .recovery = recovery,
       .backend_main = [](BackEnd& be) { pumping_backend(be, kDataStream, /*echo=*/9999); }});
  Stream& data = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});
  ASSERT_EQ(data.id(), kDataStream);

  auto sum = await_weight(data, 4, 30s);
  ASSERT_TRUE(sum.has_value());
  EXPECT_DOUBLE_EQ(*sum, full_sum(4));

  net->kill_node(1);
  ASSERT_TRUE(net->wait_for_adoptions(2, 30s));

  // Drain until a post-recovery full-weight result arrives; weight-4
  // results produced before the kill may still be queued, so require a few.
  int full = 0;
  const auto until = std::chrono::steady_clock::now() + 60s;
  while (full < 5 && std::chrono::steady_clock::now() < until) {
    const auto result = data.recv_for(100ms);
    if (result && (*result)->get_u64(1) == 4) {
      EXPECT_DOUBLE_EQ((*result)->get_vf64(0)[0], full_sum(4));
      ++full;
    }
  }
  EXPECT_GE(full, 5);
  net->shutdown();
}

/// Both forked instantiations adopt orphans through one front-end path and
/// re-adopt through one node body, so both count every re-established
/// parent channel in net_reconnects: once at the adopting root per orphan,
/// once at each orphan.
class RecoveryForked : public ::testing::TestWithParam<NetworkMode> {};

TEST_P(RecoveryForked, ReadoptionsCountInNetReconnects) {
  constexpr std::uint32_t kDataStream = 1;
  RecoveryOptions recovery;
  recovery.auto_readopt = true;
  auto net = Network::create(
      {.mode = GetParam(),
       .topology = Topology::balanced(2, 2),
       .recovery = recovery,
       .telemetry = {.enabled = true, .interval_ms = 50},
       .backend_main = [](BackEnd& be) { pumping_backend(be, kDataStream, /*echo=*/9999); }});
  Stream& data = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});
  ASSERT_EQ(data.id(), kDataStream);
  ASSERT_TRUE(await_weight(data, 4, 30s).has_value());

  net->kill_node(1);
  ASSERT_TRUE(net->wait_for_adoptions(2, 30s));
  // Weight-4 results queued from before the kill may drain first; several
  // prove the re-adopted leaves deliver again.
  int full = 0;
  const auto until = std::chrono::steady_clock::now() + 60s;
  while (full < 5 && std::chrono::steady_clock::now() < until) {
    const auto result = data.recv_for(100ms);
    if (result && (*result)->get_u64(1) == 4) ++full;
  }
  EXPECT_GE(full, 5);
  net->shutdown();

  // Post-shutdown the snapshot is exact: every live node published a final
  // record ahead of its shutdown acknowledgement.
  const TreeMetricsSnapshot snap = net->front_end().metrics();
  for (const auto& [node, reconnects] :
       {std::pair<NodeId, std::uint64_t>{0, 2}, {3, 1}, {4, 1}}) {
    const NodeTelemetry* record = snap.find(node);
    ASSERT_NE(record, nullptr) << "node " << node;
    EXPECT_EQ(record->net_reconnects, reconnects) << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, RecoveryForked,
                         ::testing::Values(NetworkMode::kProcess, NetworkMode::kRemote));

}  // namespace
}  // namespace tbon
