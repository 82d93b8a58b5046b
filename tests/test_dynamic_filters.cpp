// Dynamic filter loading: dlopen a real shared object into the registry,
// then into a running network via the LOAD_FILTER control packet — MRNet's
// on-demand filter mechanism (paper §2.2).
#include <gtest/gtest.h>

#include <cmath>

#include "core/network.hpp"

// Injected by CMake: absolute path to the sample filter shared object.
#ifndef TBON_SAMPLE_FILTER_LIB
#error "TBON_SAMPLE_FILTER_LIB must be defined by the build"
#endif

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

TEST(DynamicFilters, LoadLibraryRegistersFilters) {
  auto& registry = FilterRegistry::instance();
  registry.load_library(TBON_SAMPLE_FILTER_LIB);
  EXPECT_TRUE(registry.has_transform("geomean"));
  EXPECT_TRUE(registry.has_sync("pairs"));
  // Idempotent: a second load of the same path must not throw on duplicate
  // registration.
  registry.load_library(TBON_SAMPLE_FILTER_LIB);
}

TEST(DynamicFilters, LoadBogusPathThrows) {
  EXPECT_THROW(FilterRegistry::instance().load_library("/no/such/library.so"),
               FilterError);
}

TEST(DynamicFilters, LoadLibraryWithoutEntryPointThrows) {
  // libm exists but does not export tbon_register_filters.
  auto& registry = FilterRegistry::instance();
  EXPECT_THROW(registry.load_library("libm.so.6"), FilterError);
}

TEST(DynamicFilters, LoadedFilterRunsInANetwork) {
  auto net = Network::create({.topology = Topology::balanced(2, 2),
                              .backend_main = [&](BackEnd& be) {
                                const double value = 2.0 + be.rank();  // 2, 3, 4, 5
                                be.send(1, kTag, "f64 u64", {std::log(value), std::uint64_t{1}});
                              }});
  // Deliver the library to every communication process through the control
  // protocol, exactly as a tool would at runtime.
  net->front_end().load_filter_library(TBON_SAMPLE_FILTER_LIB);

  Stream& stream = net->front_end().open_stream({.up_transform = "geomean"});
  const auto result = stream.recv_for(5s);
  ASSERT_TRUE(result.has_value());
  const double geomean = std::exp((*result)->get_f64(0) /
                                  static_cast<double>((*result)->get_u64(1)));
  EXPECT_NEAR(geomean, std::pow(2.0 * 3.0 * 4.0 * 5.0, 0.25), 1e-9);
  EXPECT_EQ((*result)->get_u64(1), 4u);
  net->shutdown();
}

TEST(DynamicFilters, LoadedSyncPolicyRuns) {
  auto net = Network::create({.topology = Topology::flat(4),
                              .backend_main = [&](BackEnd& be) {
                                be.send(1, kTag, "i64", {std::int64_t{be.rank()}});
                              }});
  net->front_end().load_filter_library(TBON_SAMPLE_FILTER_LIB);
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "count", .up_sync = "pairs"});
  // Four packets released in two pairs -> two count results of 2 each.
  for (int i = 0; i < 2; ++i) {
    const auto result = stream.recv_for(5s);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ((*result)->get_u64(0), 2u);
  }
  net->shutdown();
}

}  // namespace
}  // namespace tbon
