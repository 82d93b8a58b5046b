// End-to-end tests of the multi-process instantiation: real fork()ed
// communication processes, socketpair FIFO channels, serialized packets.
//
// NOTE: fork-based tests must not create threads before the network, so
// every test builds its network first thing.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "filters/equivalence.hpp"
#include "filters/register.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

std::unique_ptr<Network> process_net(Topology topology,
                                     std::function<void(BackEnd&)> backend_main) {
  return Network::create({.mode = NetworkMode::kProcess,
                          .topology = std::move(topology),
                          .backend_main = std::move(backend_main)});
}

TEST(ProcessNetwork, SumReductionFlat) {
  auto net = process_net(Topology::flat(4), [](BackEnd& be) {
    be.send(1, kTag, "i64", {std::int64_t{be.rank() + 1}});
  });
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  ASSERT_EQ(stream.id(), 1u);
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 10);
  net->shutdown();
}

TEST(ProcessNetwork, SumReductionDeepTree) {
  auto net = process_net(Topology::balanced(3, 2), [](BackEnd& be) {
    be.send(1, kTag, "i64", {std::int64_t{be.rank()}});
  });
  EXPECT_TRUE(net->is_process_mode());
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 36);  // 0 + ... + 8
  net->shutdown();
}

TEST(ProcessNetwork, BroadcastAndEcho) {
  // Downstream multicast then per-backend upstream echo, no aggregation.
  auto net = process_net(Topology::balanced(2, 2), [](BackEnd& be) {
    const auto packet = be.recv_for(10s);
    if (!packet) return;
    be.send(1, kTag, "str i64",
            {(*packet)->get_str(0) + "-ack", std::int64_t{be.rank()}});
  });
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  stream.send(kTag, "str", {std::string("hello")});
  std::set<std::int64_t> ranks;
  for (int i = 0; i < 4; ++i) {
    const auto result = stream.recv_for(10s);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ((*result)->get_str(0), "hello-ack");
    ranks.insert((*result)->get_i64(1));
  }
  EXPECT_EQ(ranks.size(), 4u);
  net->shutdown();
}

TEST(ProcessNetwork, ComplexFilterAcrossProcesses) {
  // Equivalence classes must survive real serialization across processes.
  filters::register_all(FilterRegistry::instance());
  auto net = process_net(Topology::balanced(2, 2), [](BackEnd& be) {
    EquivalenceClasses mine;
    mine.add(be.rank() % 2 == 0 ? "even" : "odd", be.rank());
    be.send(1, kTag, EquivalenceClasses::kFormat, mine.to_values());
  });
  Stream& stream = net->front_end().open_stream({.up_transform = "equivalence_class"});
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  const auto classes = EquivalenceClasses::from_values(**result);
  EXPECT_EQ(classes.num_classes(), 2u);
  EXPECT_EQ(classes.members("even"), (std::set<std::uint32_t>{0, 2}));
  EXPECT_EQ(classes.members("odd"), (std::set<std::uint32_t>{1, 3}));
  net->shutdown();
}

TEST(ProcessNetwork, MultipleWaves) {
  auto net = process_net(Topology::flat(3), [](BackEnd& be) {
    for (int wave = 0; wave < 10; ++wave) {
      be.send(1, kTag, "i64", {std::int64_t{wave * 100 + be.rank()}});
    }
  });
  Stream& stream = net->front_end().open_stream({.up_transform = "min"});
  for (int wave = 0; wave < 10; ++wave) {
    const auto result = stream.recv_for(10s);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ((*result)->get_i64(0), wave * 100);
  }
  net->shutdown();
}

TEST(ProcessNetwork, BroadcastThenPeerSendTo) {
  // A downstream command triggers a tree-routed peer message; the receiver
  // reports it upstream.
  auto net = process_net(Topology::flat(3), [](BackEnd& be) {
    const auto command = be.recv_for(10s);
    if (!command) return;
    if (be.rank() == 0) {
      be.send_to(2, kTag, "str", {std::string("peer hello")});
    } else if (be.rank() == 2) {
      const auto peer = be.recv_peer_for(10s);
      be.send(1, kTag, "i64",
              {std::int64_t{peer && (*peer)->get_str(0) == "peer hello"}});
    }
  });
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  stream.send(kTag, "str", {std::string("go")});
  const auto verdict = stream.recv_for(10s);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ((*verdict)->get_i64(0), 1);
  net->shutdown();
}

TEST(ProcessNetwork, ThreadedApisRejected) {
  auto net = process_net(Topology::flat(2), [](BackEnd&) {});
  EXPECT_THROW(net->backend(0), ProtocolError);
  EXPECT_THROW(net->run_backends([](BackEnd&) {}), ProtocolError);
  // kill_node works in process mode (kTagDie), but never against the root.
  EXPECT_THROW(net->kill_node(0), ProtocolError);
  net->shutdown();
}

TEST(ProcessNetwork, ShutdownWithoutTrafficIsClean) {
  auto net = process_net(Topology::balanced(2, 2), [](BackEnd&) {});
  net->shutdown();
  net->shutdown();  // idempotent
}

TEST(ProcessNetwork, DestructorReapsChildren) {
  {
    auto net = process_net(Topology::flat(3), [](BackEnd& be) {
      be.send(1, kTag, "i64", {std::int64_t{1}});
    });
    net->front_end().open_stream({.up_transform = "sum"});
    // No explicit shutdown.
  }
  // If children leaked, later fork-heavy tests would accumulate zombies; a
  // clean destructor run is the assertion here.
  SUCCEED();
}

}  // namespace
}  // namespace tbon
