// Tests for dynamic back-end attach (paper §2.2: "MRNet also supports a
// more dynamic topology model in which ... back-end processes may join
// after the internal tree has been instantiated").
//
// Joins go through the typed reconfiguration API.  A dynamic back-end is an
// ordinary leaf: it heartbeats, publishes telemetry and moves like a static
// one, which the last cases check.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "core/network.hpp"
#include "core/reconfig.hpp"
#include "modes.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

/// Join one back-end under `parent` via FrontEnd::reconfigure and return its
/// handle.
BackEnd& add_leaf(Network& net, NodeId parent) {
  const ReconfigResult result =
      net.front_end().reconfigure(TopologyDelta().add_leaf(parent));
  if (!result.ok()) throw ProtocolError(result.ops().front().message);
  return net.backend(result.ops().front().new_rank);
}

TEST(DynamicAttach, NewBackendJoinsExistingStream) {
  auto net = Network::create({.topology = Topology::flat(2)});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});

  BackEnd& late = add_leaf(*net, net->topology().root());
  EXPECT_EQ(late.rank(), 2u);
  EXPECT_EQ(net->num_backends(), 3u);

  // All three back-ends (two original + the newcomer) contribute to a wave.
  net->backend(0).send(stream.id(), kTag, "i64", {std::int64_t{1}});
  net->backend(1).send(stream.id(), kTag, "i64", {std::int64_t{2}});
  late.send(stream.id(), kTag, "i64", {std::int64_t{4}});  // waits for replay

  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 7);
  net->shutdown();
}

TEST(DynamicAttach, StreamsCreatedAfterAttachIncludeNewcomer) {
  auto net = Network::create({.topology = Topology::flat(2)});
  BackEnd& late = add_leaf(*net, net->topology().root());

  Stream& stream = net->front_end().open_stream({.up_transform = "count"});
  net->backend(0).send(stream.id(), kTag, "i64", {std::int64_t{0}});
  net->backend(1).send(stream.id(), kTag, "i64", {std::int64_t{0}});
  late.send(stream.id(), kTag, "i64", {std::int64_t{0}});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_u64(0), 3u);
  net->shutdown();
}

TEST(DynamicAttach, BroadcastReachesNewcomer) {
  auto net = Network::create({.topology = Topology::flat(2)});
  BackEnd& late = add_leaf(*net, net->topology().root());
  Stream& stream = net->front_end().open_stream({});
  // Give the attach a moment to be wired before the downstream multicast.
  // (The attach marker and the stream announcement both flow through the
  // root's inbox; marker first, so ordering is already guaranteed.)
  stream.send(kTag, "str", {std::string("hello")});
  const auto packet = late.recv_for(5s);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ((*packet)->get_str(0), "hello");
  net->shutdown();
}

TEST(DynamicAttach, AttachUnderInternalNode) {
  auto net = Network::create({.topology = Topology::balanced(2, 2),  // nodes 1,2 internal
                              .backend_main = [](BackEnd& be) {
                                be.send(1, kTag, "i64", {std::int64_t{1}});
                              }});
  BackEnd& late = add_leaf(*net, 1);
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  late.send(stream.id(), kTag, "i64", {std::int64_t{10}});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 14);  // 4 originals + newcomer
  net->shutdown();
}

TEST(DynamicAttach, PeerRoutingReachesNewcomer) {
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  BackEnd& late = add_leaf(*net, 2);  // under the second internal node
  net->backend(0).send_to(late.rank(), kTag, "str", {std::string("welcome")});
  const auto message = late.recv_peer_for(5s);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ((*message)->get_str(0), "welcome");
  EXPECT_EQ((*message)->src_rank(), 0u);

  // And the reverse direction.
  late.send_to(0, kTag, "str", {std::string("thanks")});
  const auto reply = net->backend(0).recv_peer_for(5s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)->get_str(0), "thanks");
  net->shutdown();
}

TEST(DynamicAttach, MultipleAttachesGetDistinctRanks) {
  auto net = Network::create({.topology = Topology::flat(2)});
  BackEnd& a = add_leaf(*net, 0);
  BackEnd& b = add_leaf(*net, 0);
  BackEnd& c = add_leaf(*net, 0);
  EXPECT_EQ(a.rank(), 2u);
  EXPECT_EQ(b.rank(), 3u);
  EXPECT_EQ(c.rank(), 4u);
  EXPECT_EQ(net->num_backends(), 5u);
  EXPECT_EQ(&net->backend(3), &b);

  Stream& stream = net->front_end().open_stream({.up_transform = "count"});
  for (std::uint32_t rank = 0; rank < 5; ++rank) {
    net->backend(rank).send(stream.id(), kTag, "i64", {std::int64_t{0}});
  }
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_u64(0), 5u);
  net->shutdown();
}

TEST(DynamicAttach, ExplicitEndpointStreamsExcludeNewcomer) {
  auto net = Network::create({.topology = Topology::flat(2)});
  Stream& subset = net->front_end().open_stream(
      {.endpoints = {0, 1}, .up_transform = "sum"});
  BackEnd& late = add_leaf(*net, net->topology().root());
  (void)late;
  net->backend(0).send(subset.id(), kTag, "i64", {std::int64_t{1}});
  net->backend(1).send(subset.id(), kTag, "i64", {std::int64_t{2}});
  // Wave completes without the newcomer (it is not a member).
  const auto result = subset.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 3);
  net->shutdown();
}

TEST(DynamicAttach, RejectsBadParents) {
  auto net = Network::create({.topology = Topology::flat(2)});
  EXPECT_THROW(add_leaf(*net, 1), ProtocolError);   // a leaf
  EXPECT_THROW(add_leaf(*net, 99), ProtocolError);  // out of range
  net->shutdown();
}

TEST(DynamicAttach, RecoveryPattern) {
  // The reconfiguration story (paper §2.2: nodes "show up or leave at any
  // time (perhaps as a response to failures, recoveries, or load
  // balancing)"): kill an internal node, then attach a replacement back-end
  // to the root and keep computing with the survivors.
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});

  net->kill_node(1);  // orphans ranks 0 and 1
  BackEnd& replacement = add_leaf(*net, net->topology().root());

  net->backend(2).send(stream.id(), kTag, "i64", {std::int64_t{10}});
  net->backend(3).send(stream.id(), kTag, "i64", {std::int64_t{20}});
  replacement.send(stream.id(), kTag, "i64", {std::int64_t{30}});

  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 60);
  net->shutdown();
}

TEST(DynamicAttach, ShutdownWaitsForNewcomers) {
  auto net = Network::create({.topology = Topology::flat(2)});
  for (int i = 0; i < 3; ++i) add_leaf(*net, net->topology().root());
  net->shutdown();  // must not hang or double-count acks
}

// ---- a dynamic back-end is an ordinary leaf ---------------------------------

/// Forked modes attach dynamic back-ends at the root, and run the static
/// ones' bodies in their own processes.
class DynamicLeaves : public modes::Test {};

TEST_P(DynamicLeaves, IdleLeafOutlivesTheHeartbeatTimeout) {
  auto net = create({.topology = Topology::flat(2),
                     .recovery = {.heartbeat_interval_ms = 20, .failure_timeout_ms = 100},
                     .backend_main = [](BackEnd&) {}});
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  BackEnd& late = add_leaf(*net, net->topology().root());
  std::this_thread::sleep_for(600ms);  // six failure timeouts of silence
  EXPECT_FALSE(late.shutting_down());
  late.send(stream.id(), kTag, "i64", {std::int64_t{42}});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 42);
  net->shutdown();
}

TEST_P(DynamicLeaves, EachPublishesATelemetryRecord) {
  auto net = create({.topology = Topology::flat(2),
                     .telemetry = {.enabled = true, .interval_ms = 25},
                     .backend_main = [](BackEnd&) {}});
  add_leaf(*net, net->topology().root());
  add_leaf(*net, net->topology().root());
  // Every node publishes a final record ahead of its shutdown ack, so the
  // frozen snapshot holds every live node's.
  net->shutdown();
  const TreeMetricsSnapshot tree = net->front_end().metrics();
  const NodeId first = static_cast<NodeId>(net->topology().num_nodes());
  for (const NodeId id : {first, first + 1}) {
    const NodeTelemetry* record = tree.find(id);
    ASSERT_NE(record, nullptr) << "node " << id;
    EXPECT_EQ(record->role, 2) << "node " << id;  // a leaf
  }
}

TBON_INSTANTIATE_MODES(DynamicLeaves);

// Merging interiors is threaded-only, so moves of a dynamic back-end are.
// balanced(2,2): interiors 1 and 2; merge(1, 2) moves node 1's children,
// the newcomer among them, under node 2.

TEST(DynamicLeafMoves, ShutdownAfterAMergeReturnsPromptly) {
  for (int run = 0; run < 20; ++run) {
    SCOPED_TRACE("run=" + std::to_string(run));
    auto net = Network::create({.topology = Topology::balanced(2, 2)});
    add_leaf(*net, 1);
    ASSERT_TRUE(net->front_end().reconfigure(TopologyDelta().merge(1, 2)).ok());
    // Watchdog: a wedged shutdown fails the case here (the future's
    // destructor then waits out the network's own force-close).
    auto shutdown = std::async(std::launch::async, [&net] { net->shutdown(); });
    ASSERT_EQ(shutdown.wait_for(5s), std::future_status::ready) << "shutdown hangs";
  }
}

TEST(DynamicLeafMoves, KillingTheOldParentSparesTheMovedLeaf) {
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  FrontEnd& fe = net->front_end();
  BackEnd& late = add_leaf(*net, 1);
  ASSERT_TRUE(fe.reconfigure(TopologyDelta().merge(1, 2)).ok());
  net->kill_node(1);
  // The dead node closes its links as it exits, at once; give its EOFs
  // ample time to reach the children it no longer has.
  std::this_thread::sleep_for(200ms);
  EXPECT_FALSE(late.shutting_down());
  Stream& stream = fe.open_stream({});
  stream.send(kTag, "str", {std::string("after")});
  const auto packet = late.recv_for(5s);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ((*packet)->get_str(0), "after");
  EXPECT_FALSE(late.shutting_down());
  net->shutdown();
}

}  // namespace
}  // namespace tbon
