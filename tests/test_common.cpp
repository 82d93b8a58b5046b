// Unit tests for the util substrate: archive, data values, queue, rng,
// histogram, stats, config.
#include <gtest/gtest.h>

#include <thread>

#include "common/archive.hpp"
#include "common/config.hpp"
#include "common/datavalue.hpp"
#include "common/histogram.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace tbon {
namespace {

// ---- archive ----------------------------------------------------------------

TEST(Archive, ScalarRoundTrip) {
  BinaryWriter writer;
  writer.put<std::int32_t>(-42);
  writer.put<std::uint64_t>(0xdeadbeefcafef00dULL);
  writer.put<double>(3.25);
  writer.put<std::uint8_t>(7);

  BinaryReader reader(writer.bytes());
  EXPECT_EQ(reader.get<std::int32_t>(), -42);
  EXPECT_EQ(reader.get<std::uint64_t>(), 0xdeadbeefcafef00dULL);
  EXPECT_DOUBLE_EQ(reader.get<double>(), 3.25);
  EXPECT_EQ(reader.get<std::uint8_t>(), 7);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Archive, StringAndVectorRoundTrip) {
  BinaryWriter writer;
  writer.put_string("hello tbon");
  writer.put_vector<std::int64_t>(std::vector<std::int64_t>{1, -2, 3});
  writer.put_string("");

  BinaryReader reader(writer.bytes());
  EXPECT_EQ(reader.get_string(), "hello tbon");
  EXPECT_EQ(reader.get_vector<std::int64_t>(), (std::vector<std::int64_t>{1, -2, 3}));
  EXPECT_EQ(reader.get_string(), "");
}

TEST(Archive, TruncatedInputThrows) {
  BinaryWriter writer;
  writer.put<std::uint32_t>(100);  // claims a 100-byte string follows
  BinaryReader reader(writer.bytes());
  EXPECT_THROW(reader.get_string(), CodecError);
}

TEST(Archive, EmptyReaderThrowsOnRead) {
  BinaryReader reader({});
  EXPECT_TRUE(reader.exhausted());
  EXPECT_THROW(reader.get<std::int32_t>(), CodecError);
}

// ---- data values --------------------------------------------------------------

TEST(DataFormat, ParsesTokens) {
  const DataFormat format("i32 vf64 str");
  ASSERT_EQ(format.arity(), 3u);
  EXPECT_EQ(format.fields()[0], DataType::kInt32);
  EXPECT_EQ(format.fields()[1], DataType::kVecFloat64);
  EXPECT_EQ(format.fields()[2], DataType::kString);
}

TEST(DataFormat, EmptyFormatIsValid) {
  const DataFormat format("");
  EXPECT_EQ(format.arity(), 0u);
  EXPECT_TRUE(format.matches({}));
}

TEST(DataFormat, ToleratesExtraSpaces) {
  const DataFormat format("  i32   f64 ");
  EXPECT_EQ(format.arity(), 2u);
}

TEST(DataFormat, FieldListsPastTheInlineCapacityKeepEveryField) {
  // Fifteen field types are held inline; longer lists move to the heap.
  for (const std::size_t arity : {15u, 16u, 40u}) {
    SCOPED_TRACE(arity);
    std::string text;
    std::vector<DataValue> values;
    for (std::size_t i = 0; i < arity; ++i) {
      text += i % 2 ? "vf64 " : "i32 ";
      if (i % 2) {
        values.emplace_back(std::vector<double>{static_cast<double>(i)});
      } else {
        values.emplace_back(static_cast<std::int32_t>(i));
      }
    }
    const DataFormat format(text);
    ASSERT_EQ(format.arity(), arity);
    for (std::size_t i = 0; i < arity; ++i) {
      EXPECT_EQ(format.fields()[i], i % 2 ? DataType::kVecFloat64 : DataType::kInt32);
    }
    const DataFormat copy = format;
    EXPECT_EQ(copy, format);
    EXPECT_NE(DataFormat(text + "str"), format);
    EXPECT_TRUE(copy.matches(values));

    BinaryWriter writer;
    pack_values(writer, copy, values);
    BinaryReader reader(writer.bytes());
    EXPECT_EQ(unpack_values(reader, format), values);
  }
}

TEST(DataFormat, RejectsUnknownToken) {
  EXPECT_THROW(DataFormat("i32 bogus"), ParseError);
}

TEST(DataFormat, MatchChecksTypesAndArity) {
  const DataFormat format("i32 str");
  EXPECT_TRUE(format.matches(std::vector<DataValue>{std::int32_t{1}, std::string("x")}));
  EXPECT_FALSE(format.matches(std::vector<DataValue>{std::int32_t{1}}));
  EXPECT_FALSE(format.matches(std::vector<DataValue>{std::int64_t{1}, std::string("x")}));
}

// Property-style sweep: every format token round-trips through pack/unpack.
struct ValueCase {
  const char* format;
  DataValue value;
};

// gtest_discover_tests puts the printed parameter into the ctest name; the
// default printer would include the address of `format`, which changes from
// run to run.
void PrintTo(const ValueCase& param, std::ostream* os) { *os << param.format; }

class ValueRoundTrip : public ::testing::TestWithParam<ValueCase> {};

TEST_P(ValueRoundTrip, PackUnpack) {
  const auto& [format_string, value] = GetParam();
  const DataFormat format(format_string);
  BinaryWriter writer;
  pack_values(writer, format, std::vector<DataValue>{value});
  BinaryReader reader(writer.bytes());
  const auto out = unpack_values(reader, format);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], value);
  EXPECT_TRUE(reader.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ValueRoundTrip,
    ::testing::Values(
        ValueCase{"i32", std::int32_t{-7}}, ValueCase{"i64", std::int64_t{1} << 40},
        ValueCase{"u64", std::uint64_t{0xffffffffffffffffULL}}, ValueCase{"f64", 2.718281828},
        ValueCase{"str", std::string("packet")},
        ValueCase{"bytes", Bytes{std::byte{1}, std::byte{255}}},
        ValueCase{"vi64", std::vector<std::int64_t>{1, 2, 3}},
        ValueCase{"vf64", std::vector<double>{0.5, -0.5}},
        ValueCase{"vstr", std::vector<std::string>{"a", "", "c"}}));

TEST(DataValue, PayloadBytes) {
  EXPECT_EQ(value_payload_bytes(DataValue{std::int32_t{1}}), 4u);
  EXPECT_EQ(value_payload_bytes(DataValue{std::vector<double>(10, 0.0)}), 80u);
  EXPECT_EQ(value_payload_bytes(DataValue{std::string("abcd")}), 4u);
}

TEST(DataValue, PackRejectsMismatch) {
  const DataFormat format("i32");
  BinaryWriter writer;
  EXPECT_THROW(pack_values(writer, format, std::vector<DataValue>{std::string("no")}),
               CodecError);
}

// ---- queue --------------------------------------------------------------------

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.pop(), i);
}

TEST(BoundedQueue, TryPushRespectsCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));
}

TEST(BoundedQueue, CloseDrainsThenFails) {
  BoundedQueue<int> queue(8);
  queue.push(1);
  queue.push(2);
  queue.close();
  EXPECT_FALSE(queue.push(3));
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, PopForTimesOut) {
  BoundedQueue<int> queue(8);
  const auto result = queue.pop_for(std::chrono::milliseconds(10));
  EXPECT_EQ(result, std::nullopt);
}

TEST(BoundedQueue, BlockingPushUnblocksOnPop) {
  BoundedQueue<int> queue(1);
  queue.push(1);
  std::thread producer([&] { queue.push(2); });
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  producer.join();
}

TEST(BoundedQueue, ManyProducersOneConsumer) {
  BoundedQueue<int> queue(16);
  constexpr int kPerProducer = 200;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue] {
      for (int i = 0; i < kPerProducer; ++i) queue.push(i);
    });
  }
  long long total = 0;
  for (int i = 0; i < kPerProducer * kProducers; ++i) total += *queue.pop();
  for (auto& t : producers) t.join();
  EXPECT_EQ(total, kProducers * (kPerProducer - 1) * kPerProducer / 2);
}

// ---- rng ------------------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(99);
  constexpr int kSamples = 50000;
  double sum = 0.0, sum_squares = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.gaussian(10.0, 2.0);
    sum += v;
    sum_squares += v * v;
  }
  const double mean = sum / kSamples;
  const double variance = sum_squares / kSamples - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(variance, 4.0, 0.15);
}

// ---- histogram -------------------------------------------------------------------

TEST(Histogram, BinsSamples) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.9);
  h.add(5.0);
  h.add(-1.0);
  h.add(10.0);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.bin(5), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, MergeEqualsGlobalBuild) {
  // The TBON-correctness property: merging per-leaf histograms gives exactly
  // the histogram of the union of the samples.
  Rng rng(5);
  Histogram global(0.0, 1.0, 32);
  Histogram parts[4] = {Histogram(0.0, 1.0, 32), Histogram(0.0, 1.0, 32),
                        Histogram(0.0, 1.0, 32), Histogram(0.0, 1.0, 32)};
  for (int i = 0; i < 4000; ++i) {
    const double v = rng.next_double();
    global.add(v);
    parts[i % 4].add(v);
  }
  Histogram merged(0.0, 1.0, 32);
  for (const auto& part : parts) merged.merge(part);
  EXPECT_EQ(merged, global);
}

TEST(Histogram, MergeRejectsDifferentBucketing) {
  Histogram a(0.0, 1.0, 8), b(0.0, 2.0, 8);
  EXPECT_THROW(a.merge(b), Error);
}

TEST(Histogram, QuantileApproximatesRank) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.5);
}

// ---- stats -----------------------------------------------------------------------

TEST(Stats, Summary) {
  const std::vector<double> samples = {1, 2, 3, 4, 5};
  const Summary s = summarize(samples);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(Stats, EmptySample) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

// ---- config ----------------------------------------------------------------------

TEST(Config, ParsesKeyValues) {
  Config config;
  config.add("leaves=16");
  config.add("bandwidth=50.5");
  config.add("verbose=true");
  config.add("name=fig4");
  config.add("not-a-pair");
  EXPECT_EQ(config.get_int("leaves"), 16);
  EXPECT_DOUBLE_EQ(config.get_double("bandwidth"), 50.5);
  EXPECT_TRUE(config.get_bool("verbose"));
  EXPECT_EQ(config.get("name"), "fig4");
  EXPECT_EQ(config.get_int("missing", 7), 7);
  EXPECT_FALSE(config.has("not-a-pair"));
}

}  // namespace
}  // namespace tbon
