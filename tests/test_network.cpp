// End-to-end tests of the threaded TBON instantiation: multicast, gather,
// reduction, multiple concurrent streams, subset endpoints, dynamic filter
// registration, shutdown semantics and failure injection (test_modes.cpp
// runs the core paths in every instantiation).  Cases that call
// net->backend(rank) stay threaded: they order a back-end's sends against
// the test thread's own actions (a kill, a delete, a partial window), and
// only this instantiation hands out static back-end handles.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/rng.hpp"
#include "core/network.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;

constexpr std::int32_t kTag = kFirstAppTag;

TEST(Network, RejectsDegenerateTopologies) {
  EXPECT_THROW(Network::create({.topology = Topology::single()}), TopologyError);
  EXPECT_THROW(Network::create({}), TopologyError);  // default topology is single()
}

TEST(Network, ConcatGathersInRankOrder) {
  auto net = Network::create({.topology = Topology::balanced(2, 3),  // 8 leaves
                              .backend_main = [](BackEnd& be) {
                                be.send(1, kTag, "vi64",
                                        {std::vector<std::int64_t>{be.rank()}});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "concat"});

  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  const auto& ranks = (*result)->get_vi64(0);
  ASSERT_EQ(ranks.size(), 8u);
  // wait_for_all + DFS child order -> global rank order.
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(ranks[i], i);
  net->shutdown();
}

TEST(Network, FlatTopologyWorks) {
  auto net = Network::create({.topology = Topology::flat(32), .backend_main = [](BackEnd& be) {
                                be.send(1, kTag, "f64", {static_cast<double>(be.rank())});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "max"});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ((*result)->get_f64(0), 31.0);
  net->shutdown();
}

TEST(Network, ConcurrentOverlappingStreams) {
  // "MRNet supports data communication across multiple, concurrent data
  // streams that may overlap in end-point membership."
  auto net = Network::create({.topology = Topology::balanced(4, 2),  // 16 leaves
                              .backend_main = [](BackEnd& be) {
                                be.send(1, kTag, "i64", {std::int64_t{1}});
                                be.send(2, kTag, "f64", {static_cast<double>(be.rank())});
                                be.send(1, kTag, "i64", {std::int64_t{2}});
                              }});
  Stream& sums = net->front_end().open_stream({.up_transform = "sum"});
  Stream& maxima = net->front_end().open_stream({.up_transform = "max"});

  const auto sum1 = sums.recv_for(5s);
  const auto sum2 = sums.recv_for(5s);
  const auto max1 = maxima.recv_for(5s);
  ASSERT_TRUE(sum1 && sum2 && max1);
  EXPECT_EQ((*sum1)->get_i64(0), 16);
  EXPECT_EQ((*sum2)->get_i64(0), 32);
  EXPECT_DOUBLE_EQ((*max1)->get_f64(0), 15.0);
  net->shutdown();
}

TEST(Network, SubsetEndpointsOnlyInvolveMembers) {
  // Streams over endpoint subsets select sub-trees (paper §2.2).
  std::atomic<int> downstream_seen{0};
  std::atomic<int> stray{0};
  auto net = Network::create({.topology = Topology::balanced(4, 2),  // 16 leaves
                              .backend_main = [&](BackEnd& be) {
                                if (be.rank() < 4) {
                                  const auto packet = be.recv_for(5s);
                                  ASSERT_TRUE(packet.has_value());
                                  downstream_seen.fetch_add(1);
                                  be.send(1, kTag, "i64", {std::int64_t{10}});
                                } else if (be.recv_for(200ms).ok()) {
                                  stray.fetch_add(1);  // non-members must receive nothing
                                }
                              }});
  Stream& subset = net->front_end().open_stream(
      {.endpoints = {0, 1, 2, 3}, .up_transform = "sum"});  // one subtree only
  subset.send(kTag, "str", {std::string("begin")});

  const auto result = subset.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 40);
  net->shutdown();  // joins the bodies
  EXPECT_EQ(downstream_seen.load(), 4);
  EXPECT_EQ(stray.load(), 0);
}

TEST(Network, DownstreamFilterRuns) {
  // Downstream transformation: our extension beyond upstream-only MRNet
  // streams (the paper's future-work direction of bidirectional filtering).
  std::atomic<int> got{0};
  auto net = Network::create({.topology = Topology::balanced(2, 2),
                              .backend_main = [&](BackEnd& be) {
                                const auto packet = be.recv_for(5s);
                                ASSERT_TRUE(packet.has_value());
                                EXPECT_EQ((*packet)->get_i64(0), 5);
                                got.fetch_add(1);
                              }});
  Stream& stream = net->front_end().open_stream({.down_transform = "passthrough"});
  stream.send(kTag, "i64", {std::int64_t{5}});
  net->shutdown();  // the packet precedes the shutdown; joins the bodies
  EXPECT_EQ(got.load(), 4);
}

TEST(Network, CustomFilterViaRegistry) {
  // Application-specific filter: doubles every i64 while summing.
  static std::atomic<int> instances{0};
  class DoubleSum final : public TransformFilter {
   public:
    DoubleSum() { instances.fetch_add(1); }
    void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                FilterContext&) override {
      std::int64_t total = 0;
      for (const auto& packet : in) total += packet->get_i64(0);
      out.push_back(Packet::make(in.front()->stream_id(), in.front()->tag(),
                                 in.front()->src_rank(), "i64", {total * 2}));
    }
  };
  auto& registry = FilterRegistry::instance();
  if (!registry.has_transform("test_double_sum")) {
    registry.register_transform("test_double_sum", [](const FilterContext&) {
      return std::unique_ptr<TransformFilter>(std::make_unique<DoubleSum>());
    });
  }

  auto net = Network::create({.topology = Topology::balanced(2, 2),
                              .backend_main = [](BackEnd& be) {
                                be.send(1, kTag, "i64", {std::int64_t{1}});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "test_double_sum"});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  // Two internal nodes double (1+1)*2=4 each; root doubles (4+4)*2=16.
  EXPECT_EQ((*result)->get_i64(0), 16);
  EXPECT_GE(instances.load(), 3);  // one per (node, stream)
  net->shutdown();
}

TEST(Network, UnknownFilterFailsFast) {
  auto net = Network::create({.topology = Topology::flat(2)});
  EXPECT_THROW(net->front_end().open_stream({.up_transform = "missing"}), FilterError);
  EXPECT_THROW(net->front_end().open_stream({.up_sync = "missing"}), FilterError);
  EXPECT_THROW(net->front_end().open_stream({.endpoints = {99}}), ProtocolError);
  net->shutdown();
}

TEST(Network, BadTagRejected) {
  auto net = Network::create({.topology = Topology::flat(2)});
  Stream& stream = net->front_end().open_stream({});
  EXPECT_THROW(stream.send(1, "", {}), ProtocolError);  // control-range tag
  net->shutdown();
}

TEST(Network, ShutdownIsIdempotentAndUnblocksRecv) {
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  net->shutdown();
  net->shutdown();  // second call is a no-op
  EXPECT_EQ(stream.recv_for(100ms).status(), RecvStatus::kShutdown);
}

TEST(Network, DestructorShutsDownCleanly) {
  auto net = Network::create({.topology = Topology::balanced(3, 2)});
  net->front_end().open_stream({.up_transform = "sum"});
  // No explicit shutdown: the destructor must not hang or crash.
}

TEST(Network, TimeoutSyncDeliversWithoutAllChildren) {
  auto net = Network::create({.topology = Topology::flat(4)});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("sum").sync("time_out").with_params(
          FilterParams().set("window_ms", 30)));
  // Only half the back-ends report.
  net->backend(0).send(stream.id(), kTag, "i64", {std::int64_t{5}});
  net->backend(1).send(stream.id(), kTag, "i64", {std::int64_t{6}});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 11);
  net->shutdown();
}

TEST(Network, NullSyncDeliversPerPacket) {
  auto net = Network::create({.topology = Topology::flat(3)});
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  net->backend(2).send(stream.id(), kTag, "i64", {std::int64_t{7}});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 7);
  EXPECT_EQ((*result)->src_rank(), 2u);
  net->shutdown();
}

TEST(Network, BackendFailureDegradesWaitForAll) {
  auto net = Network::create({.topology = Topology::flat(4)});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});

  // Kill back-end rank 3 before anyone sends.
  net->kill_node(net->topology().leaves()[3]);

  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    net->backend(rank).send(stream.id(), kTag, "i64", {std::int64_t{1}});
  }
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 3);  // survivors only
  net->shutdown();
}

TEST(Network, InternalNodeFailureOrphansSubtree) {
  auto net = Network::create({.topology = Topology::balanced(2, 2)});  // nodes 1,2 internal
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});

  net->kill_node(1);  // first internal node: leaves 0,1 orphaned

  net->backend(2).send(stream.id(), kTag, "i64", {std::int64_t{10}});
  net->backend(3).send(stream.id(), kTag, "i64", {std::int64_t{20}});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 30);
  net->shutdown();
}

TEST(Network, KillRootRejected) {
  auto net = Network::create({.topology = Topology::flat(2)});
  EXPECT_THROW(net->kill_node(0), ProtocolError);
  net->shutdown();
}

TEST(Network, MetricsCountTraffic) {
  // Threaded: node_metrics reads interior runtimes, which live in this
  // process only here.
  auto net = Network::create({.topology = Topology::balanced(2, 2),
                              .backend_main = [](BackEnd& be) {
                                be.send(1, kTag, "vf64", {std::vector<double>(8, 1.0)});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  net->shutdown();

  const auto root = net->node_metrics(0);
  EXPECT_EQ(root.packets_up, 2u);  // one aggregate per internal child
  EXPECT_GE(root.waves, 1u);
  EXPECT_GT(root.filter_ns, 0u);
  const auto internal = net->node_metrics(1);
  EXPECT_EQ(internal.packets_up, 2u);  // its two leaves
  EXPECT_EQ(internal.bytes_up, 2u * 64u);
}

TEST(Network, DeleteStreamFlushesAndStops) {
  auto net = Network::create({.topology = Topology::flat(2)});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  net->backend(0).send(stream.id(), kTag, "i64", {std::int64_t{1}});
  // Partial wave is buffered in wait_for_all; delete flushes it upward.
  net->front_end().delete_stream(stream.id());
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 1);
  net->shutdown();
}

// Property sweep: sum over random trees equals the arithmetic series, for
// assorted shapes (including skewed and uneven ones).
class NetworkReduction : public ::testing::TestWithParam<const char*> {};

TEST_P(NetworkReduction, SumMatchesClosedForm) {
  const Topology topology = TopologyOptions::from_spec(GetParam());
  auto net = Network::create({.topology = topology, .backend_main = [](BackEnd& be) {
                                be.send(1, kTag, "i64", {std::int64_t{be.rank()}});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  const auto n = static_cast<std::int64_t>(topology.num_leaves());
  EXPECT_EQ((*result)->get_i64(0), n * (n - 1) / 2);
  net->shutdown();
}

INSTANTIATE_TEST_SUITE_P(Shapes, NetworkReduction,
                         ::testing::Values("flat:1", "flat:7", "bal:2x3", "bal:5x2",
                                           "auto:4:13", "auto:3:10", "fanouts:2,3,4",
                                           "knomial:2:4"));

}  // namespace
}  // namespace tbon
