// Tests for the complex-filter library: equivalence classes, histogram
// merge, time-aligned aggregation, call-tree folding (SGFA), top-k, clock
// skew and the super filter — both as plain data structures and end-to-end
// through real networks.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/network.hpp"
#include "filters/calltree.hpp"
#include "filters/clockskew.hpp"
#include "filters/equivalence.hpp"
#include "filters/histogram_filter.hpp"
#include "filters/register.hpp"
#include "filters/super.hpp"
#include "filters/time_aligned.hpp"
#include "filters/topk.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

class ComplexFilters : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { filters::register_all(FilterRegistry::instance()); }
};

// ---- equivalence classes ------------------------------------------------------

TEST_F(ComplexFilters, EquivalenceClassesMergeUnionsMembers) {
  EquivalenceClasses a, b;
  a.add("report-x", 0);
  a.add("report-x", 1);
  a.add("report-y", 2);
  b.add("report-x", 3);
  b.add("report-z", 4);
  a.merge(b);
  EXPECT_EQ(a.num_classes(), 3u);
  EXPECT_EQ(a.members("report-x"), (std::set<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(a.num_members(), 5u);
  EXPECT_THROW(a.members("missing"), Error);
}

TEST_F(ComplexFilters, EquivalenceClassesCodecRoundTrip) {
  EquivalenceClasses classes;
  classes.add("k1", 3);
  classes.add("k1", 1);
  classes.add("k2", 2);
  const PacketPtr packet = Packet::make(1, kTag, 0, EquivalenceClasses::kFormat,
                                        classes.to_values());
  EXPECT_EQ(EquivalenceClasses::from_values(*packet), classes);
}

TEST_F(ComplexFilters, EquivalenceClassEndToEnd) {
  // 16 back-ends, 3 distinct report classes by rank % 3: the front-end must
  // see exactly 3 classes with full membership.
  const auto backend_main = [&](BackEnd& be) {
    EquivalenceClasses mine;
    mine.add("class-" + std::to_string(be.rank() % 3), be.rank());
    be.send(1, kTag, EquivalenceClasses::kFormat, mine.to_values());
  };
  auto net = Network::create({.topology = Topology::balanced(4, 2), .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream({.up_transform = "equivalence_class"});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  const auto classes = EquivalenceClasses::from_values(**result);
  EXPECT_EQ(classes.num_classes(), 3u);
  EXPECT_EQ(classes.num_members(), 16u);
  for (std::uint32_t rank = 0; rank < 16; ++rank) {
    EXPECT_TRUE(classes.members("class-" + std::to_string(rank % 3)).count(rank));
  }
  net->shutdown();
}

TEST_F(ComplexFilters, EquivalenceClassCompressionGrowsWithRedundancy) {
  // The Paradyn scalability effect: bytes at the front-end scale with the
  // number of distinct classes, not the number of back-ends.
  EquivalenceClasses redundant, unique_classes;
  for (std::uint32_t rank = 0; rank < 256; ++rank) {
    redundant.add("same-everywhere", rank);
    unique_classes.add("host-" + std::to_string(rank), rank);
  }
  std::size_t redundant_bytes = 0, unique_bytes = 0;
  for (const auto& value : redundant.to_values()) redundant_bytes += value_payload_bytes(value);
  for (const auto& value : unique_classes.to_values()) unique_bytes += value_payload_bytes(value);
  EXPECT_LT(redundant_bytes, unique_bytes / 2);
}

// ---- histogram merge ----------------------------------------------------------

TEST_F(ComplexFilters, HistogramCodecRoundTrip) {
  Histogram original(0.0, 10.0, 16);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) original.add(rng.uniform(-1.0, 11.0));
  const PacketPtr packet =
      Packet::make(1, kTag, 0, HistogramCodec::kFormat, HistogramCodec::to_values(original));
  EXPECT_EQ(HistogramCodec::from_values(*packet), original);
}

TEST_F(ComplexFilters, HistogramEndToEndEqualsGlobal) {
  constexpr std::size_t kLeaves = 8;
  // Build per-leaf histograms and the global one from identical samples.
  std::vector<Histogram> locals(kLeaves, Histogram(0.0, 100.0, 20));
  Histogram global(0.0, 100.0, 20);
  Rng rng(11);
  for (int i = 0; i < 8000; ++i) {
    const double v = rng.gaussian(50.0, 20.0);
    locals[static_cast<std::size_t>(i) % kLeaves].add(v);
    global.add(v);
  }

  const auto backend_main = [&](BackEnd& be) {
    be.send(1, kTag, HistogramCodec::kFormat,
            HistogramCodec::to_values(locals[be.rank()]));
  };
  auto net = Network::create({.topology = Topology::balanced(2, 3), .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream({.up_transform = "histogram_merge"});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(HistogramCodec::from_values(**result), global);
  net->shutdown();
}

// ---- time-aligned aggregation ---------------------------------------------------

TEST_F(ComplexFilters, TimeAlignedEmitsCompleteBucketsOnly) {
  FilterContext ctx;
  ctx.num_children = 2;
  TimeAlignedFilter filter(ctx);
  std::vector<PacketPtr> out;

  const PacketPtr b0c0 = Packet::make(1, kTag, 0, TimeAlignedFilter::kFormat,
                                      {std::uint64_t{0}, std::vector<double>{1, 2}});
  const PacketPtr b1c0 = Packet::make(1, kTag, 0, TimeAlignedFilter::kFormat,
                                      {std::uint64_t{1}, std::vector<double>{5, 5}});
  const PacketPtr b0c1 = Packet::make(1, kTag, 1, TimeAlignedFilter::kFormat,
                                      {std::uint64_t{0}, std::vector<double>{10, 20}});

  const PacketPtr in1[] = {b0c0};
  filter.filter(in1, out, ctx);
  EXPECT_TRUE(out.empty());  // bucket 0 has one of two contributions

  const PacketPtr in2[] = {b1c0};
  filter.filter(in2, out, ctx);
  EXPECT_TRUE(out.empty());  // bucket 1 incomplete too

  const PacketPtr in3[] = {b0c1};
  filter.filter(in3, out, ctx);
  ASSERT_EQ(out.size(), 1u);  // bucket 0 complete
  EXPECT_EQ(out[0]->get_u64(0), 0u);
  EXPECT_EQ(out[0]->get_vf64(1), (std::vector<double>{11, 22}));

  // flush() flushes the incomplete bucket 1.
  out.clear();
  filter.flush(out, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->get_u64(0), 1u);
  EXPECT_EQ(out[0]->get_vf64(1), (std::vector<double>{5, 5}));
}

TEST_F(ComplexFilters, TimeAlignedEndToEnd) {
  // 4 leaves each send buckets 0..2 interleaved; front-end must see exactly
  // 3 aligned buckets, each summing all four children.
  const auto backend_main = [&](BackEnd& be) {
    for (std::uint64_t bucket = 0; bucket < 3; ++bucket) {
      be.send(1, kTag, TimeAlignedFilter::kFormat,
              {bucket, std::vector<double>{static_cast<double>(bucket + 1)}});
    }
  };
  auto net = Network::create({.topology = Topology::balanced(2, 2), .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "time_aligned", .up_sync = "null"});
  std::map<std::uint64_t, double> seen;
  for (int i = 0; i < 3; ++i) {
    const auto result = stream.recv_for(5s);
    ASSERT_TRUE(result.has_value());
    seen[(*result)->get_u64(0)] = (*result)->get_vf64(1)[0];
  }
  ASSERT_EQ(seen.size(), 3u);
  for (std::uint64_t bucket = 0; bucket < 3; ++bucket) {
    EXPECT_DOUBLE_EQ(seen[bucket], 4.0 * static_cast<double>(bucket + 1));
  }
  net->shutdown();
}

// ---- call trees / SGFA -----------------------------------------------------------

TEST_F(ComplexFilters, CallTreeAddAndFold) {
  CallTree a;
  const std::string path1[] = {"main", "solve", "mpi_wait"};
  const std::string path2[] = {"main", "io"};
  a.add_path(path1, 0);
  a.add_path(path2, 0);
  EXPECT_EQ(a.num_nodes(), 4u);  // main, solve, mpi_wait, io

  CallTree b;
  const std::string path3[] = {"main", "solve", "mpi_wait"};
  b.add_path(path3, 1);

  a.merge(b);
  EXPECT_EQ(a.num_nodes(), 4u);  // same structure folded, not duplicated
  const auto paths = a.paths();
  ASSERT_EQ(paths.size(), 4u);
  // "/main/solve/mpi_wait" must carry both hosts.
  bool found = false;
  for (const auto& [path, hosts] : paths) {
    if (path == "/main/solve/mpi_wait") {
      EXPECT_EQ(hosts, (std::set<std::uint32_t>{0, 1}));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ComplexFilters, CallTreeMergeIsCommutativeAndAssociative) {
  auto make = [](std::uint32_t rank, std::initializer_list<const char*> labels) {
    CallTree tree;
    std::vector<std::string> path;
    for (const char* label : labels) path.emplace_back(label);
    tree.add_path(path, rank);
    return tree;
  };
  const CallTree a = make(0, {"m", "x"});
  const CallTree b = make(1, {"m", "y"});
  const CallTree c = make(2, {"m", "x", "z"});

  CallTree ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  CallTree c_ba = c;
  c_ba.merge(b);
  c_ba.merge(a);
  EXPECT_EQ(ab_c, c_ba);
}

TEST_F(ComplexFilters, CallTreeCodecRoundTrip) {
  CallTree tree;
  const std::string p1[] = {"main", "a", "b"};
  const std::string p2[] = {"main", "c"};
  const std::string p3[] = {"init"};
  tree.add_path(p1, 7);
  tree.add_path(p2, 8);
  tree.add_path(p3, 9);
  const PacketPtr packet = Packet::make(1, kTag, 0, CallTree::kFormat, tree.to_values());
  EXPECT_EQ(CallTree::from_values(*packet), tree);
}

TEST_F(ComplexFilters, SgfaEndToEnd) {
  // Every back-end reports the same qualitative structure plus one
  // rank-specific path; the composite must fold the shared structure and
  // attribute hosts correctly (paper §2.2's SGFA behaviour).
  constexpr std::size_t kLeaves = 9;
  const auto backend_main = [&](BackEnd& be) {
    CallTree tree;
    const std::string shared[] = {"main", "solve", "mpi_wait"};
    tree.add_path(shared, be.rank());
    if (be.rank() % 3 == 0) {
      const std::string outlier[] = {"main", "checkpoint"};
      tree.add_path(outlier, be.rank());
    }
    be.send(1, kTag, CallTree::kFormat, tree.to_values());
  };
  auto net = Network::create({.topology = Topology::balanced(3, 2), .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream({.up_transform = "sgfa"});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  const CallTree composite = CallTree::from_values(**result);
  EXPECT_EQ(composite.num_nodes(), 4u);  // main, solve, mpi_wait, checkpoint
  for (const auto& [path, hosts] : composite.paths()) {
    if (path == "/main/solve/mpi_wait") {
      EXPECT_EQ(hosts.size(), kLeaves);
    }
    if (path == "/main/checkpoint") {
      EXPECT_EQ(hosts, (std::set<std::uint32_t>{0, 3, 6}));
    }
  }
  net->shutdown();
}

// ---- top-k -------------------------------------------------------------------------

TEST_F(ComplexFilters, TopKKeepsLargest) {
  FilterContext ctx;
  ctx.num_children = 2;
  Config params;
  params.add("k=3");
  ctx.params = params;
  TopKFilter filter(ctx);

  const PacketPtr in[] = {
      Packet::make(1, kTag, 0, TopKFilter::kFormat,
                   {std::vector<double>{5, 1}, std::vector<std::string>{"e", "a"}}),
      Packet::make(1, kTag, 1, TopKFilter::kFormat,
                   {std::vector<double>{4, 9}, std::vector<std::string>{"d", "i"}}),
  };
  std::vector<PacketPtr> out;
  filter.filter(in, out, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->get_vf64(0), (std::vector<double>{9, 5, 4}));
  EXPECT_EQ(out[0]->get_vstr(1), (std::vector<std::string>{"i", "e", "d"}));
}

TEST_F(ComplexFilters, TopKEndToEndMatchesGlobalSort) {
  const auto backend_main = [&](BackEnd& be) {
    // score(rank, i) = rank * 10 + i for i in 0..9; global top-5 = 159..155.
    std::vector<double> scores;
    std::vector<std::string> labels;
    for (int i = 0; i < 10; ++i) {
      scores.push_back(static_cast<double>(be.rank()) * 10 + i);
      labels.push_back(std::to_string(be.rank()) + ":" + std::to_string(i));
    }
    be.send(1, kTag, TopKFilter::kFormat, {scores, labels});
  };
  auto net = Network::create({.topology = Topology::balanced(4, 2),  // 16 leaves
                              .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("topk").with_params(FilterParams().set("k", 5)));
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  const auto& scores = (*result)->get_vf64(0);
  ASSERT_EQ(scores.size(), 5u);
  // Global max = 15*10+9 = 159, then 158, ...
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(scores[i], 159.0 - i);
  net->shutdown();
}

// ---- clock skew -----------------------------------------------------------------

TEST_F(ComplexFilters, VirtualSkewIsDeterministicAndBounded) {
  for (std::uint32_t node = 0; node < 100; ++node) {
    const double skew = virtual_skew(node, 42);
    EXPECT_EQ(skew, virtual_skew(node, 42));
    EXPECT_GT(skew, -0.5);
    EXPECT_LT(skew, 0.5);
  }
  EXPECT_EQ(virtual_skew(7, 0), 0.0);  // seed 0 disables
}

TEST_F(ComplexFilters, ClockSkewEndToEnd) {
  // Full protocol over a 2-deep tree with injected virtual skews: recovered
  // offsets must match the injected values within the path-latency bound.
  constexpr std::uint64_t kSeed = 42;
  const auto backend_main = [&](BackEnd& be) {
    const auto probe = be.recv_for(5s);
    ASSERT_TRUE(probe.has_value());
    // Probe must have been stamped by the internal path (root + 1 internal).
    EXPECT_GE((*probe)->get_vf64(0).size(), 3u);
    be.send(1, kTag, "vi64 vf64",
            {make_clock_reply(**probe, be.rank(), kSeed)->get_vi64(0),
             make_clock_reply(**probe, be.rank(), kSeed)->get_vf64(1)});
  };
  auto net = Network::create({.topology = Topology::balanced(3, 2), .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("clock_skew").down("clock_probe").with_params(
          FilterParams().set("skew_seed", 42)));
  // PROBE carries the front-end's virtual clock (the root node applies
  // clock_probe too, appending its own stamp; the FE stamp is field 0).
  stream.send(kTag, "vf64",
              {std::vector<double>{virtual_now_seconds(0 + 1'000'000u, 0)}});
  // Use an unskewed FE stamp so expected offset == virtual_skew(be-key).

  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  const auto& ranks = (*result)->get_vi64(0);
  const auto& offsets = (*result)->get_vf64(1);
  ASSERT_EQ(ranks.size(), 9u);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const double expected =
        virtual_skew(static_cast<std::uint32_t>(ranks[i]) + 1'000'000u, kSeed);
    // Latency bound: generous 50 ms for a loopback path under load.
    EXPECT_NEAR(offsets[i], expected, 0.05) << "rank " << ranks[i];
  }
  net->shutdown();
}

// ---- super filter ------------------------------------------------------------------

TEST_F(ComplexFilters, SuperFilterChains) {
  const auto backend_main = [&](BackEnd& be) {
    be.send(1, kTag, TopKFilter::kFormat,
            {std::vector<double>{static_cast<double>(be.rank()),
                                 static_cast<double>(be.rank()) + 100.0},
             std::vector<std::string>{"lo", "hi"}});
  };
  auto net = Network::create({.topology = Topology::balanced(2, 2), .backend_main = backend_main});
  // Chain: topk(k=2) then passthrough — chaining is observable because the
  // result is the top-2 at every level.
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("super").with_params(
          FilterParams().set("chain", "topk,passthrough").set("k", 2)));
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  const auto& scores = (*result)->get_vf64(0);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_DOUBLE_EQ(scores[0], 103.0);
  EXPECT_DOUBLE_EQ(scores[1], 102.0);
  net->shutdown();
}

TEST_F(ComplexFilters, SuperFilterRejectsBadChains) {
  FilterContext ctx;
  Config params;
  params.add("chain=super");
  ctx.params = params;
  EXPECT_THROW(SuperFilter(ctx, FilterRegistry::instance()), FilterError);

  FilterContext empty_ctx;
  EXPECT_THROW(SuperFilter(empty_ctx, FilterRegistry::instance()), FilterError);
}

}  // namespace
}  // namespace tbon
