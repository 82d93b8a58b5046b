// Tests for the MRNet-style topology configuration format.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "topology/mrnet_config.hpp"

namespace tbon {
namespace {

TEST(MrnetConfig, ParsesTwoLevelTree) {
  const Topology t = parse_mrnet_config(R"(
    # front-end and two communication processes
    fe:0 => comm1:0 comm2:0 ;
    comm1:0 => be:0 be:1 ;
    comm2:0 => be:2 be:3 ;
  )");
  EXPECT_EQ(t.num_nodes(), 7u);
  EXPECT_EQ(t.num_leaves(), 4u);
  EXPECT_EQ(t.depth(), 2u);
  EXPECT_EQ(t.node(0).host, "fe");
  EXPECT_EQ(t.node(t.leaves()[0]).host, "be");
}

TEST(MrnetConfig, ChildOrderPreserved) {
  const Topology t = parse_mrnet_config("r:0 => c:2 c:0 c:1 ;");
  // Leaf ranks follow the declared order, not slot numbers.
  ASSERT_EQ(t.num_leaves(), 3u);
  EXPECT_EQ(t.node(0).children.size(), 3u);
}

TEST(MrnetConfig, RoundTrip) {
  const Topology original = Topology::balanced(3, 2);
  const std::string rendered = to_mrnet_config(original);
  const Topology reparsed = parse_mrnet_config(rendered);
  EXPECT_EQ(reparsed.num_nodes(), original.num_nodes());
  EXPECT_EQ(reparsed.num_leaves(), original.num_leaves());
  EXPECT_EQ(reparsed.depth(), original.depth());
  // Idempotent rendering.
  EXPECT_EQ(to_mrnet_config(reparsed), rendered);
}

TEST(MrnetConfig, HostsSurviveRoundTrip) {
  const Topology t = parse_mrnet_config("alpha:0 => beta:0 gamma:7 ;");
  const std::string rendered = to_mrnet_config(t);
  EXPECT_NE(rendered.find("alpha:0"), std::string::npos);
  EXPECT_NE(rendered.find("beta:0"), std::string::npos);
  EXPECT_NE(rendered.find("gamma:0"), std::string::npos);  // indices renumbered per host
}

TEST(MrnetConfig, CommentsAndWhitespace) {
  const Topology t = parse_mrnet_config(
      "# comment only line\n"
      "  a:0   =>\tb:0   ; # trailing comment\n");
  EXPECT_EQ(t.num_nodes(), 2u);
}

TEST(MrnetConfig, Errors) {
  EXPECT_THROW(parse_mrnet_config(""), ParseError);
  EXPECT_THROW(parse_mrnet_config("a:0 b:0 ;"), ParseError);        // missing =>
  EXPECT_THROW(parse_mrnet_config("a:0 => b:0"), ParseError);       // missing ;
  EXPECT_THROW(parse_mrnet_config("a:0 => ;"), ParseError);         // no children
  EXPECT_THROW(parse_mrnet_config("a => b:0 ;"), ParseError);       // bad slot
  EXPECT_THROW(parse_mrnet_config("a:x => b:0 ;"), ParseError);     // bad index
  // Two roots.
  EXPECT_THROW(parse_mrnet_config("a:0 => b:0 ;\nc:0 => d:0 ;"), TopologyError);
  // Child with two parents.
  EXPECT_THROW(parse_mrnet_config("a:0 => b:0 c:0 ;\nb:0 => c:0 ;"), TopologyError);
  // Cycle (also: no root).
  EXPECT_THROW(parse_mrnet_config("a:0 => b:0 ;\nb:0 => a:0 ;"), TopologyError);
}

TEST(MrnetConfig, DrivesARealNetwork) {
  const Topology t = parse_mrnet_config(R"(
    fe:0 => mid:0 mid:1 ;
    mid:0 => worker:0 worker:1 worker:2 ;
    mid:1 => worker:3 worker:4 ;
  )");
  auto net = Network::create({.topology = t,
                              .backend_main = [&](BackEnd& be) {
                                be.send(1, kFirstAppTag, "i64", {std::int64_t{1}});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  const auto result = stream.recv_for(std::chrono::seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 5);
  net->shutdown();
}

}  // namespace
}  // namespace tbon
