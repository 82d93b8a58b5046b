// Tests for the built-in transformation filters, including the
// tree-decomposition property that makes TBON aggregation exact.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/registry.hpp"

namespace tbon {
namespace {

FilterContext make_context(std::size_t num_children = 2) {
  FilterContext ctx;
  ctx.num_children = num_children;
  return ctx;
}

std::vector<PacketPtr> run_filter(const std::string& name,
                                  std::span<const PacketPtr> in,
                                  FilterContext& ctx) {
  auto filter = FilterRegistry::instance().make_transform(name, ctx);
  std::vector<PacketPtr> out;
  filter->filter(in, out, ctx);
  return out;
}

PacketPtr scalar_packet(double v) {
  return Packet::make(1, 100, 0, "f64", {v});
}

PacketPtr vec_packet(std::vector<double> v) {
  return Packet::make(1, 100, 0, "vf64", {std::move(v)});
}

TEST(Registry, BuiltinsPresent) {
  auto& registry = FilterRegistry::instance();
  for (const char* name : {"sum", "min", "max", "avg", "wavg", "count", "concat",
                           "passthrough"}) {
    EXPECT_TRUE(registry.has_transform(name)) << name;
  }
  for (const char* name : {"wait_for_all", "time_out", "null"}) {
    EXPECT_TRUE(registry.has_sync(name)) << name;
  }
  EXPECT_FALSE(registry.has_transform("no-such-filter"));
}

TEST(Registry, UnknownNameThrows) {
  FilterContext ctx = make_context();
  EXPECT_THROW(FilterRegistry::instance().make_transform("nope", ctx), FilterError);
  EXPECT_THROW(FilterRegistry::instance().make_sync("nope", ctx), FilterError);
}

TEST(Registry, DuplicateRegistrationThrows) {
  FilterRegistry registry;
  registry.register_transform("f", [](const FilterContext&) {
    return std::unique_ptr<TransformFilter>();
  });
  EXPECT_THROW(registry.register_transform("f",
                                           [](const FilterContext&) {
                                             return std::unique_ptr<TransformFilter>();
                                           }),
               FilterError);
}

TEST(SumFilter, ScalarsAndVectors) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {
      Packet::make(1, 100, 0, "i64 vf64", {std::int64_t{3}, std::vector<double>{1, 2}}),
      Packet::make(1, 100, 1, "i64 vf64", {std::int64_t{4}, std::vector<double>{10, 20}}),
  };
  const auto out = run_filter("sum", in, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->get_i64(0), 7);
  EXPECT_EQ(out[0]->get_vf64(1), (std::vector<double>{11, 22}));
}

TEST(SumFilter, SingleInputIsIdentity) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {scalar_packet(5.0)};
  const auto out = run_filter("sum", in, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0]->get_f64(0), 5.0);
}

TEST(SumFilter, RejectsMixedFormats) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {scalar_packet(1.0),
                          Packet::make(1, 100, 1, "i32", {std::int32_t{1}})};
  EXPECT_THROW(run_filter("sum", in, ctx), CodecError);
}

TEST(SumFilter, RejectsLengthMismatchedVectors) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {vec_packet({1, 2}), vec_packet({1, 2, 3})};
  EXPECT_THROW(run_filter("sum", in, ctx), CodecError);
}

TEST(MinMaxFilter, Work) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {scalar_packet(3.5), scalar_packet(-1.0), scalar_packet(2.0)};
  EXPECT_DOUBLE_EQ(run_filter("min", in, ctx)[0]->get_f64(0), -1.0);
  EXPECT_DOUBLE_EQ(run_filter("max", in, ctx)[0]->get_f64(0), 3.5);
}

TEST(MinMaxFilter, StringsRideAlong) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {
      Packet::make(1, 100, 0, "f64 str", {1.0, std::string("first")}),
      Packet::make(1, 100, 1, "f64 str", {2.0, std::string("second")}),
  };
  const auto out = run_filter("max", in, ctx);
  EXPECT_DOUBLE_EQ(out[0]->get_f64(0), 2.0);
  EXPECT_EQ(out[0]->get_str(1), "first");  // non-numeric: first packet wins
}

TEST(AvgFilter, EqualWeightMean) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {vec_packet({2, 4}), vec_packet({4, 8})};
  const auto out = run_filter("avg", in, ctx);
  EXPECT_EQ(out[0]->get_vf64(0), (std::vector<double>{3, 6}));
}

TEST(WavgFilter, ExactForUnevenWeights) {
  FilterContext ctx = make_context();
  // Child A aggregated 3 endpoints summing to 30; child B 1 endpoint with 10.
  const PacketPtr in[] = {
      Packet::make(1, 100, 0, "vf64 u64", {std::vector<double>{30.0}, std::uint64_t{3}}),
      Packet::make(1, 100, 1, "vf64 u64", {std::vector<double>{10.0}, std::uint64_t{1}}),
  };
  const auto out = run_filter("wavg", in, ctx);
  EXPECT_EQ(out[0]->get_vf64(0), std::vector<double>{40.0});
  EXPECT_EQ(out[0]->get_u64(1), 4u);
  // The front-end divides: exact mean = 10, where plain avg-of-avgs would
  // have reported (10 + 10) / 2 = 10 here but differs in general.
}

TEST(WavgFilter, RejectsWrongFormat) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {scalar_packet(1.0)};
  EXPECT_THROW(run_filter("wavg", in, ctx), CodecError);
}

TEST(CountFilter, CountsLeavesAndComposes) {
  FilterContext ctx = make_context();
  // Leaf level: arbitrary packets count 1 each.
  const PacketPtr leaf_in[] = {scalar_packet(1), scalar_packet(2), scalar_packet(3)};
  const auto level1 = run_filter("count", leaf_in, ctx);
  EXPECT_EQ(level1[0]->get_u64(0), 3u);

  // Upper level: partial counts sum.
  const PacketPtr upper_in[] = {
      Packet::make(1, 100, 0, "u64", {std::uint64_t{3}}),
      Packet::make(1, 100, 1, "u64", {std::uint64_t{5}}),
  };
  EXPECT_EQ(run_filter("count", upper_in, ctx)[0]->get_u64(0), 8u);
}

TEST(ConcatFilter, ConcatenatesInChildOrder) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {
      Packet::make(1, 100, 0, "vi64 str", {std::vector<std::int64_t>{1, 2}, std::string("ab")}),
      Packet::make(1, 100, 1, "vi64 str", {std::vector<std::int64_t>{3}, std::string("c")}),
  };
  const auto out = run_filter("concat", in, ctx);
  EXPECT_EQ(out[0]->get_vi64(0), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(out[0]->get_str(1), "abc");
}

TEST(ConcatFilter, RejectsScalarFields) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {scalar_packet(1), scalar_packet(2)};
  EXPECT_THROW(run_filter("concat", in, ctx), CodecError);
}

TEST(PassthroughFilter, ForwardsEverything) {
  FilterContext ctx = make_context();
  const PacketPtr in[] = {scalar_packet(1), scalar_packet(2)};
  const auto out = run_filter("passthrough", in, ctx);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], in[0]);  // same object: zero copy
  EXPECT_EQ(out[1], in[1]);
}

// ---- the tree-decomposition property -----------------------------------------
//
// For associative+commutative reductions, aggregating through any tree must
// equal a flat fold over all inputs.  This is the algebraic core of the
// paper's scalability argument, so we check it property-style.

struct TreeReduceCase {
  const char* filter;
  std::size_t leaves;
  std::size_t arity;  // inner-node fanout of the simulated tree
};

// gtest_discover_tests puts the printed parameter into the ctest name; the
// default byte dump would include the address of `filter`, which changes
// from build to build.
void PrintTo(const TreeReduceCase& param, std::ostream* os) {
  *os << param.filter << "_leaves" << param.leaves << "_arity" << param.arity;
}

class TreeDecomposition : public ::testing::TestWithParam<TreeReduceCase> {};

TEST_P(TreeDecomposition, TreeFoldEqualsFlatFold) {
  const auto& param = GetParam();
  FilterContext ctx = make_context(param.arity);
  Rng rng(param.leaves * 31 + param.arity);

  std::vector<PacketPtr> level;
  for (std::size_t i = 0; i < param.leaves; ++i) {
    level.push_back(vec_packet({rng.uniform(-100, 100), rng.uniform(-100, 100)}));
  }

  // Flat fold.
  const auto flat = run_filter(param.filter, level, ctx);

  // Tree fold: repeatedly reduce groups of `arity`.
  while (level.size() > 1) {
    std::vector<PacketPtr> next;
    for (std::size_t i = 0; i < level.size(); i += param.arity) {
      const std::size_t end = std::min(i + param.arity, level.size());
      std::vector<PacketPtr> group(level.begin() + i, level.begin() + end);
      const auto reduced = run_filter(param.filter, group, ctx);
      next.insert(next.end(), reduced.begin(), reduced.end());
    }
    level = std::move(next);
  }

  ASSERT_EQ(flat.size(), 1u);
  ASSERT_EQ(level.size(), 1u);
  const auto& expect = flat[0]->get_vf64(0);
  const auto& got = level[0]->get_vf64(0);
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-9) << param.filter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Reductions, TreeDecomposition,
    ::testing::Values(TreeReduceCase{"sum", 16, 2}, TreeReduceCase{"sum", 37, 3},
                      TreeReduceCase{"sum", 100, 7}, TreeReduceCase{"min", 16, 2},
                      TreeReduceCase{"min", 55, 4}, TreeReduceCase{"max", 16, 2},
                      TreeReduceCase{"max", 81, 9}));

// concat through a tree preserves global left-to-right order.
TEST(TreeDecomposition, ConcatPreservesOrder) {
  FilterContext ctx = make_context(4);
  std::vector<PacketPtr> level;
  for (std::int64_t i = 0; i < 64; ++i) {
    level.push_back(Packet::make(1, 100, static_cast<std::uint32_t>(i), "vi64",
                                 {std::vector<std::int64_t>{i}}));
  }
  while (level.size() > 1) {
    std::vector<PacketPtr> next;
    for (std::size_t i = 0; i < level.size(); i += 4) {
      const std::size_t end = std::min(i + 4, level.size());
      std::vector<PacketPtr> group(level.begin() + i, level.begin() + end);
      const auto reduced = run_filter("concat", group, ctx);
      next.insert(next.end(), reduced.begin(), reduced.end());
    }
    level = std::move(next);
  }
  const auto& sequence = level[0]->get_vi64(0);
  ASSERT_EQ(sequence.size(), 64u);
  for (std::int64_t i = 0; i < 64; ++i) EXPECT_EQ(sequence[i], i);
}

}  // namespace
}  // namespace tbon
