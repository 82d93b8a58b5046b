// Tests for the built-in transformation filters, including the
// tree-decomposition property that makes TBON aggregation exact.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>

#include "common/rng.hpp"
#include "core/coalesce.hpp"
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

// ---- the in-frame fold equals the value path ----------------------------------
//
// When every input is wire-backed, sum/min/max fold inside a copy of the
// first input's frame; owned or mixed inputs take the value path.  Over
// random formats of all nine field types, vector lengths 0..70 and 1..9
// inputs decoded from one batch frame (so the entries sit at misaligned
// offsets, as on the wire), both paths must give byte-identical packets, or
// both throw the same CodecError.

constexpr DataType kAllTypes[] = {
    DataType::kInt32,  DataType::kInt64,    DataType::kUInt64,
    DataType::kFloat64, DataType::kString,  DataType::kBytes,
    DataType::kVecInt64, DataType::kVecFloat64, DataType::kVecString};

/// One draw in four is +0, -0, an infinity or a NaN of either sign, so
/// min/max meet unordered and signed-zero operands and sums meet NaNs of
/// opposite sign, whose result IEEE 754 leaves to the operand order.
double random_f64(Rng& rng) {
  constexpr double kSpecial[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN(),
                                 -std::numeric_limits<double>::quiet_NaN()};
  if (rng.next_below(4) == 0) return kSpecial[rng.next_below(std::size(kSpecial))];
  return rng.uniform(-1e6, 1e6);
}

/// Small enough that a sum over nine inputs cannot overflow.
std::int64_t random_i64(Rng& rng) {
  return static_cast<std::int64_t>(rng.next_below(std::uint64_t{1} << 40)) -
         (std::int64_t{1} << 39);
}

std::string random_string(Rng& rng) {
  std::string s(rng.next_below(12), 'a');
  for (char& c : s) c = static_cast<char>('a' + rng.next_below(26));
  return s;
}

/// Values for `types`; numeric vector field f has `lengths[f]` elements.
std::vector<DataValue> random_values(const std::vector<DataType>& types,
                                     const std::vector<std::size_t>& lengths, Rng& rng) {
  std::vector<DataValue> values;
  for (std::size_t f = 0; f < types.size(); ++f) {
    switch (types[f]) {
      case DataType::kInt32:
        values.emplace_back(static_cast<std::int32_t>(rng.next_below(2001)) - 1000);
        break;
      case DataType::kInt64:
        values.emplace_back(random_i64(rng));
        break;
      case DataType::kUInt64:
        values.emplace_back(rng.next_u64());  // sums wrap, which is defined
        break;
      case DataType::kFloat64:
        values.emplace_back(random_f64(rng));
        break;
      case DataType::kString:
        values.emplace_back(random_string(rng));
        break;
      case DataType::kBytes: {
        Bytes bytes(rng.next_below(80));
        for (std::byte& b : bytes) b = static_cast<std::byte>(rng.next_u64());
        values.emplace_back(BufferView(std::move(bytes)));
        break;
      }
      case DataType::kVecInt64: {
        std::vector<std::int64_t> vec(lengths[f]);
        for (std::int64_t& x : vec) x = random_i64(rng);
        values.emplace_back(std::move(vec));
        break;
      }
      case DataType::kVecFloat64: {
        std::vector<double> vec(lengths[f]);
        for (double& x : vec) x = random_f64(rng);
        values.emplace_back(std::move(vec));
        break;
      }
      case DataType::kVecString: {
        std::vector<std::string> vec(rng.next_below(4));
        for (std::string& x : vec) x = random_string(rng);
        values.emplace_back(std::move(vec));
        break;
      }
    }
  }
  return values;
}

std::string format_text(const std::vector<DataType>& types) {
  std::string text;
  for (const DataType type : types) {
    if (!text.empty()) text += ' ';
    text += type_name(type);
  }
  return text;
}

enum class Mismatch { kNone, kFormat, kLength };

/// The same wave twice: owned packets, and the same packets decoded from
/// one batch frame.
struct Wave {
  std::vector<PacketPtr> owned;
  std::vector<PacketPtr> wire;
};

/// A mismatch gives one non-first input a different format, or a different
/// length of a numeric vector field.
Wave random_wave(Rng& rng, Mismatch mismatch) {
  std::vector<DataType> types(1 + rng.next_below(6));
  for (DataType& type : types) type = kAllTypes[rng.next_below(std::size(kAllTypes))];
  if (mismatch == Mismatch::kLength) {
    types[rng.next_below(types.size())] =
        rng.next_below(2) == 0 ? DataType::kVecInt64 : DataType::kVecFloat64;
  }
  std::vector<std::size_t> lengths(types.size());
  for (std::size_t& n : lengths) n = rng.next_below(71);
  const std::size_t inputs = (mismatch == Mismatch::kNone ? 1 : 2) +
                             rng.next_below(mismatch == Mismatch::kNone ? 9 : 8);
  const std::size_t odd_one = inputs > 1 ? 1 + rng.next_below(inputs - 1) : 0;
  Wave wave;
  for (std::size_t i = 0; i < inputs; ++i) {
    std::vector<DataType> my_types = types;
    std::vector<std::size_t> my_lengths = lengths;
    if (i == odd_one && mismatch == Mismatch::kFormat) {
      DataType& type = my_types[rng.next_below(my_types.size())];
      type = kAllTypes[(static_cast<std::size_t>(type) + 1 + rng.next_below(8)) %
                       std::size(kAllTypes)];
    }
    if (i == odd_one && mismatch == Mismatch::kLength) {
      for (std::size_t f = 0; f < types.size(); ++f) {
        if (types[f] == DataType::kVecInt64 || types[f] == DataType::kVecFloat64) {
          my_lengths[f] = (lengths[f] + 1 + rng.next_below(70)) % 71;
          break;
        }
      }
    }
    wave.owned.push_back(Packet::make(1, 100, static_cast<std::uint32_t>(i),
                                      format_text(my_types),
                                      random_values(my_types, my_lengths, rng)));
  }
  wave.wire = decode_batch_frame(encode_batch_frame(wave.owned));
  return wave;
}

Bytes serialized(const Packet& packet) {
  BinaryWriter writer;
  packet.serialize(writer);
  return writer.take();
}

/// The filter's output, or the CodecError message it threw.
struct Outcome {
  std::vector<PacketPtr> out;
  std::string error;
};

Outcome run_reduction(const char* name, std::span<const PacketPtr> in) {
  FilterContext ctx = make_context(in.size());
  Outcome outcome;
  try {
    outcome.out = run_filter(name, in, ctx);
  } catch (const CodecError& error) {
    outcome.error = error.what();
  }
  return outcome;
}

constexpr const char* kReductions[] = {"sum", "min", "max", "avg"};

TEST(WireFold, MatchesTheValuePathByteForByte) {
  Rng rng(24);
  for (int round = 0; round < 400; ++round) {
    for (const char* name : kReductions) {
      const Wave wave = random_wave(rng, Mismatch::kNone);
      SCOPED_TRACE(std::string(name) + " over " + std::to_string(wave.owned.size()) +
                   " x '" + wave.owned[0]->format().to_string() + "', round " +
                   std::to_string(round));
      const Outcome by_value = run_reduction(name, wave.owned);
      const Outcome by_frame = run_reduction(name, wave.wire);
      ASSERT_EQ(by_value.error, "");
      ASSERT_EQ(by_frame.error, "");
      ASSERT_EQ(by_value.out.size(), 1u);
      ASSERT_EQ(by_frame.out.size(), 1u);
      EXPECT_EQ(serialized(*by_frame.out[0]), serialized(*by_value.out[0]));
      EXPECT_EQ(by_frame.out[0]->payload_bytes(), by_value.out[0]->payload_bytes());
      if (std::string_view(name) != "avg") {
        // The fold emits a wire-backed packet the next hop relays verbatim.
        EXPECT_TRUE(by_frame.out[0]->has_wire());
      }
    }
  }
}

TEST(WireFold, MismatchesThrowTheSameCodecError) {
  Rng rng(25);
  for (const Mismatch mismatch : {Mismatch::kFormat, Mismatch::kLength}) {
    for (int round = 0; round < 100; ++round) {
      for (const char* name : kReductions) {
        const Wave wave = random_wave(rng, mismatch);
        SCOPED_TRACE(std::string(name) + ", round " + std::to_string(round));
        const Outcome by_value = run_reduction(name, wave.owned);
        const Outcome by_frame = run_reduction(name, wave.wire);
        EXPECT_NE(by_value.error, "");
        EXPECT_EQ(by_frame.error, by_value.error);
      }
    }
  }
}

TEST(WireFold, MixedInputsTakeTheValuePath) {
  Rng rng(26);
  for (int round = 0; round < 50; ++round) {
    for (const char* name : kReductions) {
      Wave wave = random_wave(rng, Mismatch::kNone);
      if (wave.owned.size() < 2) continue;
      wave.wire[1] = wave.owned[1];
      const Outcome by_value = run_reduction(name, wave.owned);
      const Outcome mixed = run_reduction(name, wave.wire);
      ASSERT_EQ(mixed.out.size(), 1u) << name;
      EXPECT_FALSE(mixed.out[0]->has_wire()) << name;
      EXPECT_EQ(serialized(*mixed.out[0]), serialized(*by_value.out[0])) << name;
    }
  }
}

}  // namespace
}  // namespace tbon
