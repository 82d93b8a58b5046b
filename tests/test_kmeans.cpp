// Tests for distributed k-means: partial-sum algebra, Lloyd baseline, and
// the TBON driver matching the single-node result.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/network.hpp"
#include "meanshift/kmeans.hpp"
#include "modes.hpp"

namespace tbon::km {
namespace {

using ms::nd::DatasetView;

ms::nd::SynthNdParams synth_for(std::size_t dim, std::size_t clusters) {
  ms::nd::SynthNdParams synth;
  synth.dim = dim;
  synth.num_clusters = clusters;
  synth.points_per_cluster = 250;
  synth.noise_points = 0;
  synth.cluster_stddev = 15.0;
  return synth;
}

TEST(PartialSumsTest, MergeIsElementwise) {
  PartialSums a{.sums = {1, 2, 3, 4}, .counts = {2, 1}, .sse = 10.0};
  const PartialSums b{.sums = {10, 20, 30, 40}, .counts = {5, 7}, .sse = 2.5};
  a.merge(b);
  EXPECT_EQ(a.sums, (std::vector<double>{11, 22, 33, 44}));
  EXPECT_EQ(a.counts, (std::vector<std::int64_t>{7, 8}));
  EXPECT_DOUBLE_EQ(a.sse, 12.5);
}

TEST(PartialSumsTest, MergeRejectsShapeMismatch) {
  PartialSums a{.sums = {1, 2}, .counts = {1}, .sse = 0};
  const PartialSums b{.sums = {1, 2, 3}, .counts = {1}, .sse = 0};
  EXPECT_THROW(a.merge(b), Error);
}

TEST(PartialSumsTest, CodecRoundTrip) {
  const PartialSums original{.sums = {1.5, -2.5}, .counts = {3, 4}, .sse = 9.25};
  const PacketPtr packet = Packet::make(1, kFirstAppTag, 0, PartialSums::kFormat,
                                        original.to_values());
  const PartialSums copy = PartialSums::from_values(*packet);
  EXPECT_EQ(copy.sums, original.sums);
  EXPECT_EQ(copy.counts, original.counts);
  EXPECT_DOUBLE_EQ(copy.sse, original.sse);
}

TEST(KMeansCore, InitialCentroidsDistinctAndFromData) {
  const auto coords = ms::nd::generate(synth_for(3, 4));
  const DatasetView data(coords, 3);
  KMeansParams params{.k = 4};
  const auto centroids = initial_centroids(data, params);
  ASSERT_EQ(centroids.size(), 12u);
  // Deterministic.
  EXPECT_EQ(centroids, initial_centroids(data, params));
}

TEST(KMeansCore, AssignAndSumAccountsEveryPoint) {
  const auto coords = ms::nd::generate(synth_for(2, 3));
  const DatasetView data(coords, 2);
  KMeansParams params{.k = 3};
  const auto centroids = initial_centroids(data, params);
  const PartialSums partial = assign_and_sum(data, centroids, 3);
  std::int64_t assigned = 0;
  for (const auto count : partial.counts) assigned += count;
  EXPECT_EQ(assigned, static_cast<std::int64_t>(data.size()));
  EXPECT_GT(partial.sse, 0.0);
}

TEST(KMeansCore, SingleNodeConvergesAndLowersSse) {
  const auto synth = synth_for(3, 4);
  const auto coords = ms::nd::generate(synth);
  const DatasetView data(coords, 3);
  KMeansParams params{.k = 4, .max_rounds = 100, .epsilon = 1e-4};
  const KMeansResult result = kmeans_single_node(data, params);
  EXPECT_TRUE(result.converged);

  // Every true center is matched by one centroid within a few stddevs.
  const auto centers = ms::nd::true_centers(synth);
  for (const auto& center : centers) {
    double nearest = 1e300;
    for (std::size_t c = 0; c < params.k; ++c) {
      std::span<const double> centroid(result.centroids.data() + c * 3, 3);
      nearest = std::min(nearest, ms::nd::distance_squared(centroid, center));
    }
    EXPECT_LT(std::sqrt(nearest), 12.0);
  }
}

TEST(KMeansCore, UpdateKeepsEmptyClusters) {
  std::vector<double> centroids = {0, 0, 100, 100};
  const PartialSums totals{.sums = {10, 20, 0, 0}, .counts = {10, 0}, .sse = 1};
  const double shift = update_centroids(totals, centroids, 2);
  EXPECT_DOUBLE_EQ(centroids[0], 1.0);
  EXPECT_DOUBLE_EQ(centroids[1], 2.0);
  EXPECT_DOUBLE_EQ(centroids[2], 100.0);  // untouched
  EXPECT_NEAR(shift, std::sqrt(1 + 4), 1e-9);
}

class DistributedKMeans : public modes::Test {};

TEST_P(DistributedKMeans, MatchesSingleNodeOverTree) {
  // Split one dataset across 8 leaves; the distributed rounds must converge
  // to the same centroids as a single node running on the union, because the
  // per-round sufficient statistics are identical (up to FP summation
  // order).
  constexpr std::size_t kDim = 2;
  const auto synth = synth_for(kDim, 3);
  const auto coords = ms::nd::generate(synth);
  const std::size_t points = coords.size() / kDim;

  constexpr std::size_t kLeaves = 8;
  std::vector<std::vector<double>> leaf_coords(kLeaves);
  for (std::size_t p = 0; p < points; ++p) {
    auto& block = leaf_coords[p % kLeaves];
    block.insert(block.end(), coords.begin() + static_cast<std::ptrdiff_t>(p * kDim),
                 coords.begin() + static_cast<std::ptrdiff_t>((p + 1) * kDim));
  }

  KMeansParams params{.k = 3, .max_rounds = 60, .epsilon = 1e-6};
  // Force identical initialization for an apples-to-apples comparison.
  const DatasetView leaf0(leaf_coords[0], kDim);
  const auto init = initial_centroids(leaf0, params);

  // Single node, seeded with the same initial centroids.
  KMeansResult reference;
  reference.centroids = init;
  const DatasetView all(coords, kDim);
  for (reference.rounds = 1; reference.rounds <= params.max_rounds;
       ++reference.rounds) {
    const PartialSums totals = assign_and_sum(all, reference.centroids, params.k);
    reference.sse = totals.sse;
    if (update_centroids(totals, reference.centroids, kDim) < params.epsilon) {
      reference.converged = true;
      break;
    }
  }

  auto net = create({.topology = Topology::balanced(2, 3), .backend_main = [&](BackEnd& be) {
                       kmeans_backend(be, DatasetView(leaf_coords[be.rank()], kDim));
                     }});
  const KMeansResult distributed = kmeans_distributed(*net, kDim, params, init);
  net->shutdown();

  ASSERT_TRUE(reference.converged);
  ASSERT_TRUE(distributed.converged);
  EXPECT_EQ(distributed.rounds, reference.rounds);
  ASSERT_EQ(distributed.centroids.size(), reference.centroids.size());
  for (std::size_t i = 0; i < reference.centroids.size(); ++i) {
    EXPECT_NEAR(distributed.centroids[i], reference.centroids[i], 1e-6);
  }
  EXPECT_NEAR(distributed.sse, reference.sse, reference.sse * 1e-9);
}

TBON_INSTANTIATE_MODES(DistributedKMeans);

TEST(KMeansDistributed, PerRoundTrafficIsConstantInDataSize) {
  // The §2.3 data-reduction property: a partial-sum packet is O(k*dim),
  // independent of how many points the leaf holds.
  const PartialSums small{.sums = std::vector<double>(8, 1.0),
                          .counts = std::vector<std::int64_t>(4, 10),
                          .sse = 1.0};
  const PartialSums large{.sums = std::vector<double>(8, 1.0),
                          .counts = std::vector<std::int64_t>(4, 1'000'000),
                          .sse = 1e9};
  const PacketPtr p1 = Packet::make(1, kFirstAppTag, 0, PartialSums::kFormat,
                                    small.to_values());
  const PacketPtr p2 = Packet::make(1, kFirstAppTag, 0, PartialSums::kFormat,
                                    large.to_values());
  EXPECT_EQ(p1->payload_bytes(), p2->payload_bytes());
}

}  // namespace
}  // namespace tbon::km
