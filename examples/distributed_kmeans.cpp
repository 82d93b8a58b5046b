// Distributed k-means over a TBON (paper §2.3 / Figure 2).
//
//   ./distributed_kmeans [topology=bal:4x2] [k=4] [dim=3] [points=300]
//
// The data set is partitioned across the back-ends; every Lloyd round is one
// broadcast (centroids down) and one `sum` reduction (per-centroid partial
// sums up) — per-edge traffic is O(k*dim) per round regardless of data size.
#include <cmath>
#include <cstdio>

#include "common/config.hpp"
#include "core/network.hpp"
#include "meanshift/kmeans.hpp"

using namespace tbon;
using namespace tbon::km;

int main(int argc, char** argv) {
  const Config config(argc, argv);
  const Topology topology = TopologyOptions::from_spec(config.get("topology", "bal:4x2"));
  const auto dim = static_cast<std::size_t>(config.get_int("dim", 3));

  ms::nd::SynthNdParams synth;
  synth.dim = dim;
  synth.num_clusters = static_cast<std::size_t>(config.get_int("k", 4));
  synth.points_per_cluster = static_cast<std::size_t>(config.get_int("points", 300));
  synth.noise_points = synth.points_per_cluster / 10;
  const auto coords = ms::nd::generate(synth);
  const std::size_t total_points = coords.size() / dim;

  // Partition round-robin across the back-ends.
  std::vector<std::vector<double>> leaf_coords(topology.num_leaves());
  for (std::size_t p = 0; p < total_points; ++p) {
    auto& block = leaf_coords[p % leaf_coords.size()];
    block.insert(block.end(), coords.begin() + static_cast<std::ptrdiff_t>(p * dim),
                 coords.begin() + static_cast<std::ptrdiff_t>((p + 1) * dim));
  }

  KMeansParams params;
  params.k = synth.num_clusters;
  params.epsilon = 1e-4;

  // Every back-end answers each round's centroids with its partial sums.
  const auto backend_main = [&](BackEnd& be) {
    kmeans_backend(be, ms::nd::DatasetView(leaf_coords[be.rank()], dim));
  };
  auto net = Network::create({.topology = topology, .backend_main = backend_main});
  // Initialize from the first back-end's data (any deterministic choice
  // works).
  const KMeansResult result = kmeans_distributed(
      *net, dim, params, initial_centroids(ms::nd::DatasetView(leaf_coords[0], dim), params));
  net->shutdown();

  std::printf("%zu points in %zu-D over %zu back-ends: k=%zu, %zu rounds, %s\n",
              total_points, dim, topology.num_leaves(), params.k, result.rounds,
              result.converged ? "converged" : "hit round limit");
  std::printf("final SSE: %.1f (avg %.2f per point)\n", result.sse,
              result.sse / static_cast<double>(total_points));

  const auto centers = ms::nd::true_centers(synth);
  std::printf("centroids vs true centers (nearest-match distance):\n");
  for (std::size_t c = 0; c < params.k; ++c) {
    std::span<const double> centroid(result.centroids.data() + c * dim, dim);
    double nearest = 1e300;
    for (const auto& center : centers) {
      nearest = std::min(nearest, ms::nd::distance_squared(centroid, center));
    }
    std::printf("  centroid %zu: (", c);
    for (std::size_t d = 0; d < dim; ++d) {
      std::printf("%s%.1f", d ? ", " : "", centroid[d]);
    }
    std::printf(")  off by %.2f\n", std::sqrt(nearest));
  }
  return 0;
}
