// Distributed k-means over a TBON (paper §2.3).
//
// The paper's Figure 2 maps data-clustering algorithms onto TBON reductions:
// "K-means ... defines and iteratively refines k centroids, one for each
// cluster, associating each data point with its nearest centroid".  Each
// Lloyd round decomposes perfectly:
//
//   down:  the front-end multicasts the current centroids,
//   leaf:  every back-end assigns its local points and produces per-centroid
//          (coordinate sums, counts) plus its partial SSE,
//   up:    the tree reduces the partials element-wise — which is exactly the
//          built-in `sum` filter on a "vf64 vi64 f64" packet; no custom
//          filter code is needed,
//   FE:    divides sums by counts to get the new centroids and tests
//          convergence.
//
// Per-round traffic is O(k·d) per edge regardless of data size — the data
// reduction property of §2.3.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/packet.hpp"
#include "meanshift/nd.hpp"

namespace tbon {
class BackEnd;
class Network;
}

namespace tbon::km {

struct KMeansParams {
  std::size_t k = 4;
  std::size_t max_rounds = 64;
  double epsilon = 1e-3;      ///< stop when max centroid movement < epsilon
  std::uint64_t seed = 1;     ///< deterministic initialization
};

/// One node's (or one round's global) sufficient statistics.
struct PartialSums {
  std::vector<double> sums;            ///< k*dim coordinate sums, row-major
  std::vector<std::int64_t> counts;    ///< k assignment counts
  double sse = 0.0;                    ///< sum of squared distances

  /// Element-wise accumulate (associative & commutative — tree-safe).
  void merge(const PartialSums& other);

  static constexpr const char* kFormat = "vf64 vi64 f64";
  std::vector<DataValue> to_values() const;
  static PartialSums from_values(const Packet& packet, std::size_t first_field = 0);
};

/// Deterministic initialization: k points sampled without replacement.
std::vector<double> initial_centroids(const ms::nd::DatasetView& data,
                                      const KMeansParams& params);

/// The back-end step: assign every local point to its nearest centroid.
PartialSums assign_and_sum(const ms::nd::DatasetView& data,
                           std::span<const double> centroids, std::size_t k);

/// The front-end step: new centroid = sum/count (empty clusters keep their
/// previous position).  Returns the maximum centroid displacement.
double update_centroids(const PartialSums& totals, std::span<double> centroids,
                        std::size_t dim);

struct KMeansResult {
  std::vector<double> centroids;  ///< k*dim
  double sse = 0.0;
  std::size_t rounds = 0;
  bool converged = false;
};

/// Single-node Lloyd baseline.
KMeansResult kmeans_single_node(const ms::nd::DatasetView& data,
                                const KMeansParams& params);

/// The back-end side, run as NetworkOptions::backend_main in any
/// instantiation: answer each centroid broadcast (k*dim coordinates) with
/// `local`'s PartialSums on the broadcast's stream, until shutdown.
void kmeans_backend(BackEnd& backend, const ms::nd::DatasetView& local);

/// The front-end side: Lloyd rounds from `centroids` (k*dim, e.g. from
/// initial_centroids) over a network whose back-ends run kmeans_backend.
/// The reduction stream uses the built-in `sum` filter.
KMeansResult kmeans_distributed(Network& network, std::size_t dim,
                                const KMeansParams& params, std::vector<double> centroids);

}  // namespace tbon::km
