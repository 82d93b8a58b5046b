// End-to-end tests run in all three instantiations: threaded (back-ends on
// threads of this process), process (fork()ed communication processes joined
// by socketpairs) and remote (node processes joined by localhost TCP).  The
// back-end code is NetworkOptions::backend_main in every mode.
//
// NOTE: fork-based tests must not create threads before the network, so
// every test builds its network first thing.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <stdexcept>

#include "core/network.hpp"
#include "filters/equivalence.hpp"
#include "filters/register.hpp"
#include "modes.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;
constexpr auto kWait = 20s;

// ---- the back-end entry point itself ----------------------------------------

class BackendMain : public modes::Test {};

TEST_P(BackendMain, RunsOncePerStaticBackend) {
  auto net = create({.topology = Topology::balanced(2, 3), .backend_main = [](BackEnd& be) {
                       be.send(1, kTag, "vi64", {std::vector<std::int64_t>{be.rank()}});
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "concat"});
  const auto result = stream.recv_for(kWait);
  ASSERT_TRUE(result.has_value());
  // wait_for_all + DFS child order -> each rank once, in rank order.
  std::vector<std::int64_t> expected(8);
  for (std::int64_t rank = 0; rank < 8; ++rank) expected[rank] = rank;
  EXPECT_EQ((*result)->get_vi64(0), expected);
  net->shutdown();
}

TEST_P(BackendMain, BlockedRecvReturnsAtShutdown) {
  auto net = create({.topology = Topology::balanced(2, 2), .backend_main = [](BackEnd& be) {
                       be.send(1, kTag, "i64", {std::int64_t{1}});
                       // No timeout: only the shutdown handshake ends this.
                       EXPECT_EQ(be.recv().status(), RecvStatus::kShutdown);
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  const auto entered = stream.recv_for(kWait);
  ASSERT_TRUE(entered.has_value());
  EXPECT_EQ((*entered)->get_i64(0), 4);  // every body is now in recv()
  // A forked body that never returned would hold its process past the
  // reaper's 5 s grace period.
  const auto start = std::chrono::steady_clock::now();
  net->shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST_P(BackendMain, EscapedExceptionEndsOnlyThatLeaf) {
  constexpr int kWaves = 3;
  auto net = create({.topology = Topology::flat(4), .backend_main = [](BackEnd& be) {
                       if (be.rank() == 0) throw std::runtime_error("back-end 0 gives up");
                       for (int wave = 0; wave < kWaves; ++wave) {
                         be.send(1, kTag, "i64", {std::int64_t{be.rank() + 1}});
                       }
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  // wait_for_all degrades to the survivors once rank 0's leaf is gone.
  for (int wave = 0; wave < kWaves; ++wave) {
    const auto result = stream.recv_for(kWait);
    ASSERT_TRUE(result.has_value()) << "wave " << wave;
    EXPECT_EQ((*result)->get_i64(0), 2 + 3 + 4) << "wave " << wave;
  }
  net->shutdown();
}

TBON_INSTANTIATE_MODES(BackendMain);

// ---- data paths ---------------------------------------------------------------

class TreeNetwork : public modes::Test {
 protected:
  /// Each back-end sends rank + 1 once; the root's sum is 1 + ... + n.
  void expect_exact_sum(const Topology& topology) const {
    auto net = create({.topology = topology, .backend_main = [](BackEnd& be) {
                         be.send(1, kTag, "i64", {std::int64_t{be.rank() + 1}});
                       }});
    EXPECT_EQ(net->is_process_mode(), mode() == NetworkMode::kProcess);
    EXPECT_EQ(net->is_remote_mode(), mode() == NetworkMode::kRemote);
    Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
    ASSERT_EQ(stream.id(), 1u);
    const auto result = stream.recv_for(kWait);
    ASSERT_TRUE(result.has_value());
    const auto n = static_cast<std::int64_t>(topology.num_leaves());
    EXPECT_EQ((*result)->get_i64(0), n * (n + 1) / 2) << n << " leaves";
    net->shutdown();
  }
};

TEST_P(TreeNetwork, SumReductionFlat) { expect_exact_sum(Topology::flat(4)); }

TEST_P(TreeNetwork, SumReductionBalancedTree) {
  for (const Topology& topology :
       {Topology::balanced(2, 2), Topology::balanced(3, 2), Topology::balanced(4, 2)}) {
    expect_exact_sum(topology);
  }
}

TEST_P(TreeNetwork, BroadcastReachesAllBackendsAndEchoes) {
  // Downstream multicast, then a per-back-end upstream echo of what each
  // back-end saw, without aggregation.
  auto net = create({.topology = Topology::balanced(3, 2), .backend_main = [](BackEnd& be) {
                       const auto packet = be.recv_for(kWait);
                       if (!packet) return;
                       be.send(1, kTag, "str i64 u64 i64",
                               {(*packet)->get_str(0) + "-ack", (*packet)->get_i64(1),
                                std::uint64_t{(*packet)->stream_id()},
                                std::int64_t{be.rank()}});
                     }});
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  stream.send(kTag, "str i64", {std::string("go"), std::int64_t{42}});
  std::set<std::int64_t> ranks;
  for (int i = 0; i < 9; ++i) {
    const auto result = stream.recv_for(kWait);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ((*result)->get_str(0), "go-ack");
    EXPECT_EQ((*result)->get_i64(1), 42);
    EXPECT_EQ((*result)->get_u64(2), stream.id());
    ranks.insert((*result)->get_i64(3));
  }
  EXPECT_EQ(ranks.size(), 9u);
  net->shutdown();
}

TEST_P(TreeNetwork, MultipleWavesStayOrdered) {
  constexpr int kWaves = 20;
  auto net = create({.topology = Topology::balanced(2, 2), .backend_main = [](BackEnd& be) {
                       for (int wave = 0; wave < kWaves; ++wave) {
                         be.send(1, kTag, "i64", {std::int64_t{wave}});
                         be.send(2, kTag, "i64", {std::int64_t{wave * 100 + be.rank()}});
                       }
                     }});
  Stream& sums = net->front_end().open_stream({.up_transform = "sum"});
  Stream& minima = net->front_end().open_stream({.up_transform = "min"});
  for (int wave = 0; wave < kWaves; ++wave) {
    const auto sum = sums.recv_for(kWait);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ((*sum)->get_i64(0), 4 * wave) << "wave " << wave;
    const auto min = minima.recv_for(kWait);
    ASSERT_TRUE(min.has_value());
    EXPECT_EQ((*min)->get_i64(0), wave * 100) << "wave " << wave;
  }
  net->shutdown();
}

TEST_P(TreeNetwork, ComplexFilterAcrossTheTree) {
  // Equivalence classes must survive real serialization across processes.
  filters::register_all(FilterRegistry::instance());
  auto net = create({.topology = Topology::balanced(2, 2), .backend_main = [](BackEnd& be) {
                       EquivalenceClasses mine;
                       mine.add(be.rank() % 2 == 0 ? "even" : "odd", be.rank());
                       be.send(1, kTag, EquivalenceClasses::kFormat, mine.to_values());
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "equivalence_class"});
  const auto result = stream.recv_for(kWait);
  ASSERT_TRUE(result.has_value());
  const auto classes = EquivalenceClasses::from_values(**result);
  EXPECT_EQ(classes.num_classes(), 2u);
  EXPECT_EQ(classes.members("even"), (std::set<std::uint32_t>{0, 2}));
  EXPECT_EQ(classes.members("odd"), (std::set<std::uint32_t>{1, 3}));
  net->shutdown();
}

TEST_P(TreeNetwork, BroadcastThenPeerSendTo) {
  // A downstream command triggers a tree-routed peer message; the receiver
  // reports it upstream.
  auto net = create({.topology = Topology::flat(3), .backend_main = [](BackEnd& be) {
                       const auto command = be.recv_for(kWait);
                       if (!command) return;
                       if (be.rank() == 0) {
                         be.send_to(2, kTag, "str", {std::string("peer hello")});
                       } else if (be.rank() == 2) {
                         const auto peer = be.recv_peer_for(kWait);
                         be.send(1, kTag, "i64",
                                 {std::int64_t{peer && (*peer)->get_str(0) == "peer hello"}});
                       }
                     }});
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  stream.send(kTag, "str", {std::string("go")});
  const auto verdict = stream.recv_for(kWait);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ((*verdict)->get_i64(0), 1);
  net->shutdown();
}

TEST_P(TreeNetwork, ShutdownWithoutTrafficIsClean) {
  auto net = create({.topology = Topology::balanced(2, 2), .backend_main = [](BackEnd&) {}});
  net->shutdown();
  net->shutdown();  // idempotent
}

TEST_P(TreeNetwork, DestructorWithoutShutdownIsClean) {
  {
    auto net = create({.topology = Topology::flat(3), .backend_main = [](BackEnd& be) {
                         be.send(1, kTag, "i64", {std::int64_t{1}});
                       }});
    net->front_end().open_stream({.up_transform = "sum"});
    // No explicit shutdown.
  }
  // If node processes leaked, later fork-heavy tests would accumulate
  // zombies; a clean destructor run is the assertion here.
  SUCCEED();
}

TBON_INSTANTIATE_MODES(TreeNetwork);

TEST(ProcessNetwork, ThreadedApisRejected) {
  auto net = Network::create({.mode = NetworkMode::kProcess,
                              .topology = Topology::flat(2),
                              .backend_main = [](BackEnd&) {}});
  EXPECT_THROW(net->backend(0), ProtocolError);
  // kill_node works in process mode (kTagDie), but never against the root.
  EXPECT_THROW(net->kill_node(0), ProtocolError);
  net->shutdown();
}

}  // namespace
}  // namespace tbon
