// Additional end-to-end stream behaviours, in every instantiation: wavg
// exactness vs the avg caveat, sync policies on deep trees, per-stream sync
// selection, the count alias, multi-output filters, and metrics accounting
// across levels.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "modes.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;
constexpr auto kWait = 20s;

class StreamSemantics : public modes::Test {};

TEST_P(StreamSemantics, WavgIsExactOnUnevenTrees) {
  // An uneven tree: one subtree has 3 leaves, the other 1.  Plain avg of
  // averages would weight the lone leaf 3x; wavg carries weights and stays
  // exact.
  const NodeId parents[] = {kNoNode, 0, 0, 1, 1, 1, 2};
  const Topology topology = Topology::from_parents(parents);
  ASSERT_EQ(topology.num_leaves(), 4u);

  // Values 10, 20, 30 (subtree A), 100 (subtree B): exact mean = 40.
  auto net = create({.topology = topology, .backend_main = [](BackEnd& be) {
                       const double values[] = {10, 20, 30, 100};
                       be.send(1, kTag, "vf64 u64",
                               {std::vector<double>{values[be.rank()]}, std::uint64_t{1}});
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "wavg"});
  const auto result = stream.recv_for(kWait);
  ASSERT_TRUE(result.has_value());
  const double mean = (*result)->get_vf64(0)[0] /
                      static_cast<double>((*result)->get_u64(1));
  EXPECT_DOUBLE_EQ(mean, 40.0);
  EXPECT_EQ((*result)->get_u64(1), 4u);
  net->shutdown();
}

TEST_P(StreamSemantics, AvgIsApproximateOnUnevenTrees) {
  // The documented caveat: plain avg averages per level, so the lone-leaf
  // subtree is over-weighted.  This pins the (intentional) MRNet behaviour.
  const NodeId parents[] = {kNoNode, 0, 0, 1, 1, 1, 2};
  const Topology topology = Topology::from_parents(parents);
  auto net = create({.topology = topology, .backend_main = [](BackEnd& be) {
                       const double values[] = {10, 20, 30, 100};
                       be.send(1, kTag, "f64", {values[be.rank()]});
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "avg"});
  const auto result = stream.recv_for(kWait);
  ASSERT_TRUE(result.has_value());
  // Level 1: avg(10,20,30)=20 and avg(100)=100; root: avg(20,100)=60 != 40.
  EXPECT_DOUBLE_EQ((*result)->get_f64(0), 60.0);
  net->shutdown();
}

TEST_P(StreamSemantics, CountComposesThroughDeepTrees) {
  auto net = create({.topology = Topology::balanced(3, 3),  // 27 leaves
                     .backend_main = [](BackEnd& be) {
                       be.send(1, kTag, "str", {std::string("present")});
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "count"});
  const auto result = stream.recv_for(kWait);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_u64(0), 27u);
  net->shutdown();
}

TEST_P(StreamSemantics, PerStreamSyncSelection) {
  // Two streams over the same tree with different sync policies: null must
  // deliver per-packet while wait_for_all delivers one aggregate.
  auto net = create({.topology = Topology::flat(3), .backend_main = [](BackEnd& be) {
                       be.send(1, kTag, "i64", {std::int64_t{be.rank()}});
                       be.send(2, kTag, "i64", {std::int64_t{be.rank()}});
                     }});
  Stream& eager = net->front_end().open_stream({.up_sync = "null"});
  Stream& aligned = net->front_end().open_stream({.up_transform = "sum"});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(eager.recv_for(kWait).has_value());
  }
  const auto total = aligned.recv_for(kWait);
  ASSERT_TRUE(total.has_value());
  EXPECT_EQ((*total)->get_i64(0), 3);
  net->shutdown();
}

TEST_P(StreamSemantics, MultiOutputFilterFansOutUpstream) {
  // A filter may emit several packets per batch (the general model of §2.1
  // does not constrain output count).
  static constexpr const char* kName = "test_splitter";
  auto& registry = FilterRegistry::instance();
  if (!registry.has_transform(kName)) {
    class Splitter final : public TransformFilter {
     public:
      void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                  FilterContext&) override {
        // Emit one packet per input, doubled, plus a count marker.
        for (const auto& packet : in) {
          out.push_back(Packet::make(packet->stream_id(), packet->tag(),
                                     packet->src_rank(), "i64",
                                     {packet->get_i64(0) * 2}));
        }
        out.push_back(Packet::make(in.front()->stream_id(), in.front()->tag(),
                                   kFrontEndRank, "i64",
                                   {static_cast<std::int64_t>(in.size())}));
      }
    };
    registry.register_transform(kName, [](const FilterContext&) {
      return std::unique_ptr<TransformFilter>(std::make_unique<Splitter>());
    });
  }

  // Registered before create(), so forked nodes inherit it.
  auto net = create({.topology = Topology::flat(2), .backend_main = [](BackEnd& be) {
                       be.send(1, kTag, "i64", {std::int64_t{be.rank() + 1}});
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = kName});
  // One wave of 2 inputs -> 3 outputs: 2, 4 and the count 2.
  std::multiset<std::int64_t> seen;
  for (int i = 0; i < 3; ++i) {
    const auto result = stream.recv_for(kWait);
    ASSERT_TRUE(result.has_value());
    seen.insert((*result)->get_i64(0));
  }
  EXPECT_EQ(seen, (std::multiset<std::int64_t>{2, 2, 4}));
  net->shutdown();
}

TEST_P(StreamSemantics, TimeoutSyncOnDeepTree) {
  // Only one leaf per subtree reports; time_out flushes partial windows at
  // every level, so the front-end still gets a total.
  auto net = create({.topology = Topology::balanced(2, 2), .backend_main = [](BackEnd& be) {
                       if (be.rank() == 0) be.send(1, kTag, "i64", {std::int64_t{5}});
                       if (be.rank() == 2) be.send(1, kTag, "i64", {std::int64_t{7}});
                     }});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("sum").sync("time_out").with_params(
          FilterParams().set("window_ms", 20)));
  std::int64_t total = 0;
  while (const auto result = stream.recv_for(kWait)) {
    total += (*result)->get_i64(0);
    if (total >= 12) break;
  }
  EXPECT_EQ(total, 12);
  net->shutdown();
}

TEST_P(StreamSemantics, MetricsAggregateAcrossLevels) {
  constexpr int kWaves = 5;
  auto net = create({.topology = Topology::balanced(2, 2), .backend_main = [](BackEnd& be) {
                       for (int wave = 0; wave < kWaves; ++wave) {
                         be.send(1, kTag, "vf64", {std::vector<double>{1.0, 2.0}});
                       }
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  for (int wave = 0; wave < kWaves; ++wave) {
    ASSERT_TRUE(stream.recv_for(kWait).has_value());
  }
  net->shutdown();
  // Each internal node saw 2 leaves x kWaves packets of 16 payload bytes.
  // node_metrics reads a runtime of this process: in the forked modes the
  // interior nodes run elsewhere.
  if (!forked()) {
    for (const NodeId internal : {1u, 2u}) {
      const auto metrics = net->node_metrics(internal);
      EXPECT_EQ(metrics.packets_up, 2u * kWaves);
      EXPECT_EQ(metrics.bytes_up, 2u * kWaves * 16u);
      EXPECT_EQ(metrics.waves, static_cast<std::uint64_t>(kWaves));
    }
  }
  // The root saw one aggregate per internal child per wave.
  EXPECT_EQ(net->node_metrics(0).packets_up, 2u * kWaves);
}

TEST_P(StreamSemantics, DownstreamOnlyStreamNeverSurfacesUpstream) {
  // A stream used purely for control distribution: back-ends never reply
  // on it.  Each reports what it got on a second stream.
  auto net = create({.topology = Topology::balanced(2, 2), .backend_main = [](BackEnd& be) {
                       const auto packet = be.recv_for(kWait);
                       be.send(2, kTag, "i64",
                               {std::int64_t{packet && (*packet)->get_i64(1) == 9}});
                     }});
  Stream& control = net->front_end().open_stream({});
  Stream& got = net->front_end().open_stream({.up_transform = "sum"});
  control.send(kTag, "str i64", {std::string("config"), std::int64_t{9}});
  const auto total = got.recv_for(kWait);
  ASSERT_TRUE(total.has_value());
  EXPECT_EQ((*total)->get_i64(0), 4);
  EXPECT_EQ(control.recv_for(std::chrono::milliseconds(0)).status(), RecvStatus::kTimeout);
  net->shutdown();
}

TEST_P(StreamSemantics, ZeroTimeoutRecvPollsUntilDataThenReportsShutdown) {
  // recv_for(0ms) is the polling spelling: kTimeout while nothing is
  // buffered, the packet once it lands, kShutdown after teardown.  The
  // back-ends send only once the front-end says go.
  auto net = create({.topology = Topology::flat(2), .backend_main = [](BackEnd& be) {
                       if (!be.recv_for(kWait).ok()) return;
                       be.send(1, kTag, "i64", {std::int64_t{be.rank() + 1}});
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  EXPECT_EQ(stream.recv_for(0ms).status(), RecvStatus::kTimeout);
  stream.send(kTag, "str", {std::string("go")});
  RecvResult result{RecvStatus::kTimeout};
  const auto give_up = std::chrono::steady_clock::now() + 20s;
  while (!result.ok() && std::chrono::steady_clock::now() < give_up) {
    result = stream.recv_for(0ms);
  }
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->get_i64(0), 3);
  net->shutdown();
  EXPECT_EQ(stream.recv_for(0ms).status(), RecvStatus::kShutdown);
}

TBON_INSTANTIATE_MODES(StreamSemantics);

}  // namespace
}  // namespace tbon
