// Tests for distributed agglomerative clustering: merge algebra, stop
// criteria, codec, and end-to-end equivalence with central agglomeration.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "meanshift/agglomerative.hpp"
#include "meanshift/synth.hpp"

namespace tbon::ms::agg {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

TEST(Agglomerate, SingletonsFromPoints) {
  const std::vector<Point2> points = {{1, 2}, {3, 4}};
  const auto clusters = singletons(points);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].centroid, (Point2{1, 2}));
  EXPECT_EQ(clusters[0].size, 1u);
}

TEST(Agglomerate, MergesNearestFirstAndStops) {
  // Three points: two close together (distance 2) and one far away.
  const std::vector<Point2> points = {{0, 0}, {2, 0}, {100, 0}};
  AggloParams params;
  params.stop_distance = 10.0;
  const auto clusters = agglomerate(singletons(points), params);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size, 2u);  // largest first
  EXPECT_DOUBLE_EQ(clusters[0].centroid.x, 1.0);
  EXPECT_EQ(clusters[1].size, 1u);
  EXPECT_DOUBLE_EQ(clusters[1].centroid.x, 100.0);
}

TEST(Agglomerate, SizeWeightedCentroids) {
  // A 3-point cluster at x=0 merging a singleton at x=4 lands at x=1.
  std::vector<Cluster> clusters = {{{0, 0}, 3}, {{4, 0}, 1}};
  AggloParams params;
  params.stop_distance = 5.0;
  const auto merged = agglomerate(std::move(clusters), params);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].centroid.x, 1.0);
  EXPECT_EQ(merged[0].size, 4u);
}

TEST(Agglomerate, StopDistanceZeroKeepsEverything) {
  const std::vector<Point2> points = {{0, 0}, {1, 0}, {2, 0}};
  AggloParams params;
  params.stop_distance = 0.5;
  EXPECT_EQ(agglomerate(singletons(points), params).size(), 3u);
}

TEST(Agglomerate, MaxClustersKeepsLargest) {
  std::vector<Cluster> clusters = {{{0, 0}, 10}, {{500, 0}, 30}, {{0, 500}, 20}};
  AggloParams params;
  params.stop_distance = 1.0;  // nothing merges
  params.max_clusters = 2;
  const auto kept = agglomerate(std::move(clusters), params);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].size, 30u);
  EXPECT_EQ(kept[1].size, 20u);
}

TEST(Agglomerate, CodecRoundTrip) {
  const std::vector<Cluster> clusters = {{{1.5, -2.5}, 7}, {{3, 4}, 1}};
  const PacketPtr packet =
      Packet::make(1, kTag, 0, AggloCodec::kFormat, AggloCodec::to_values(clusters));
  EXPECT_EQ(AggloCodec::from_values(*packet), clusters);
}

TEST(Agglomerate, TreeEquivalentToCentral) {
  // Distribute a mixture across 8 leaves; the tree's final clusters must
  // match a central agglomeration of all points (same count, same centroids
  // within tolerance, same total mass).
  SynthParams synth;
  synth.num_clusters = 4;
  synth.points_per_cluster = 60;
  synth.noise_points = 0;
  synth.cluster_stddev = 8.0;

  AggloParams params;
  params.stop_distance = 60.0;

  std::vector<Point2> all;
  std::vector<std::vector<Point2>> per_leaf(8);
  for (std::uint32_t rank = 0; rank < 8; ++rank) {
    per_leaf[rank] = generate_leaf_data(rank, synth);
    all.insert(all.end(), per_leaf[rank].begin(), per_leaf[rank].end());
  }
  const auto central = agglomerate(singletons(all), params);

  register_agglomerative_filter();
  const auto backend_main = [&](BackEnd& be) {
    const auto local = agglomerate(singletons(per_leaf[be.rank()]), params);
    be.send(1, kTag, AggloCodec::kFormat, AggloCodec::to_values(local));
  };
  auto net = Network::create({.topology = Topology::balanced(2, 3), .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("agglomerative").with_params(
          FilterParams().set("stop_distance", 60)));
  const auto result = stream.recv_for(30s);
  ASSERT_TRUE(result.has_value());
  const auto distributed = AggloCodec::from_values(**result);
  net->shutdown();

  ASSERT_EQ(distributed.size(), central.size());
  std::uint64_t central_mass = 0, distributed_mass = 0;
  for (const auto& c : central) central_mass += c.size;
  for (const auto& c : distributed) distributed_mass += c.size;
  EXPECT_EQ(distributed_mass, central_mass);
  EXPECT_EQ(distributed_mass, all.size());

  for (const auto& mine : distributed) {
    double nearest = 1e300;
    for (const auto& reference : central) {
      nearest = std::min(nearest, distance(mine.centroid, reference.centroid));
    }
    EXPECT_LT(nearest, 5.0);
  }
}

TEST(Agglomerate, FilterCapsForwarding) {
  register_agglomerative_filter();
  const auto backend_main = [&](BackEnd& be) {
    // Four distant singletons per back-end: nothing merges, the cap bites.
    std::vector<Cluster> clusters;
    for (int i = 0; i < 4; ++i) {
      clusters.push_back(Cluster{{static_cast<double>(be.rank()) * 1000 + i * 200,
                                  static_cast<double>(i) * 300},
                                 static_cast<std::uint64_t>(i + 1)});
    }
    be.send(1, kTag, AggloCodec::kFormat, AggloCodec::to_values(clusters));
  };
  auto net = Network::create({.topology = Topology::flat(4), .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("agglomerative").with_params(
          FilterParams().set("stop_distance", 1).set("max_clusters", 3)));
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(AggloCodec::from_values(**result).size(), 3u);
  net->shutdown();
}

}  // namespace
}  // namespace tbon::ms::agg
