#include "meanshift/kmeans.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/network.hpp"

namespace tbon::km {

void PartialSums::merge(const PartialSums& other) {
  if (sums.empty()) {
    *this = other;
    return;
  }
  if (other.sums.size() != sums.size() || other.counts.size() != counts.size()) {
    throw Error("k-means partials have mismatched shapes");
  }
  for (std::size_t i = 0; i < sums.size(); ++i) sums[i] += other.sums[i];
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  sse += other.sse;
}

std::vector<DataValue> PartialSums::to_values() const {
  return {sums, counts, sse};
}

PartialSums PartialSums::from_values(const Packet& packet, std::size_t first_field) {
  PartialSums partial;
  partial.sums = packet.get_vf64(first_field);
  partial.counts = packet.get_vi64(first_field + 1);
  partial.sse = packet.get_f64(first_field + 2);
  return partial;
}

std::vector<double> initial_centroids(const ms::nd::DatasetView& data,
                                      const KMeansParams& params) {
  if (data.size() < params.k) throw Error("fewer points than clusters");
  Rng rng(params.seed * 6364136223846793005ULL + 1);
  std::vector<std::size_t> chosen;
  while (chosen.size() < params.k) {
    const std::size_t candidate = rng.next_below(data.size());
    if (std::find(chosen.begin(), chosen.end(), candidate) == chosen.end()) {
      chosen.push_back(candidate);
    }
  }
  std::vector<double> centroids;
  centroids.reserve(params.k * data.dim());
  for (const std::size_t index : chosen) {
    const auto point = data.point(index);
    centroids.insert(centroids.end(), point.begin(), point.end());
  }
  return centroids;
}

PartialSums assign_and_sum(const ms::nd::DatasetView& data,
                           std::span<const double> centroids, std::size_t k) {
  const std::size_t dim = data.dim();
  if (centroids.size() != k * dim) throw Error("centroid shape mismatch");
  PartialSums partial;
  partial.sums.assign(k * dim, 0.0);
  partial.counts.assign(k, 0);

  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto point = data.point(i);
    double best = 1e300;
    std::size_t best_cluster = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double d2 =
          ms::nd::distance_squared(point, centroids.subspan(c * dim, dim));
      if (d2 < best) {
        best = d2;
        best_cluster = c;
      }
    }
    for (std::size_t d = 0; d < dim; ++d) {
      partial.sums[best_cluster * dim + d] += point[d];
    }
    ++partial.counts[best_cluster];
    partial.sse += best;
  }
  return partial;
}

double update_centroids(const PartialSums& totals, std::span<double> centroids,
                        std::size_t dim) {
  const std::size_t k = totals.counts.size();
  double worst_shift2 = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (totals.counts[c] == 0) continue;  // empty cluster keeps its position
    double shift2 = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double updated = totals.sums[c * dim + d] /
                             static_cast<double>(totals.counts[c]);
      const double delta = updated - centroids[c * dim + d];
      shift2 += delta * delta;
      centroids[c * dim + d] = updated;
    }
    worst_shift2 = std::max(worst_shift2, shift2);
  }
  return std::sqrt(worst_shift2);
}

KMeansResult kmeans_single_node(const ms::nd::DatasetView& data,
                                const KMeansParams& params) {
  KMeansResult result;
  result.centroids = initial_centroids(data, params);
  for (result.rounds = 1; result.rounds <= params.max_rounds; ++result.rounds) {
    const PartialSums totals = assign_and_sum(data, result.centroids, params.k);
    result.sse = totals.sse;
    const double shift = update_centroids(totals, result.centroids, data.dim());
    if (shift < params.epsilon) {
      result.converged = true;
      break;
    }
  }
  return result;
}

void kmeans_backend(BackEnd& backend, const ms::nd::DatasetView& local) {
  while (const auto packet = backend.recv()) {
    const std::vector<double>& centroids = (*packet)->get_vf64(0);
    const PartialSums partial =
        assign_and_sum(local, centroids, centroids.size() / local.dim());
    backend.send((*packet)->stream_id(), kFirstAppTag, PartialSums::kFormat,
                 partial.to_values());
  }
}

KMeansResult kmeans_distributed(Network& network, std::size_t dim,
                                const KMeansParams& params, std::vector<double> centroids) {
  KMeansResult result;
  result.centroids = std::move(centroids);

  // The per-round reduction is the built-in element-wise sum.
  Stream& stream = network.front_end().open_stream({.up_transform = "sum"});

  for (result.rounds = 1; result.rounds <= params.max_rounds; ++result.rounds) {
    // Multicast the centroids; every back-end answers with its partials.
    stream.send(kFirstAppTag, "vf64", {result.centroids});
    const auto reduced = stream.recv_for(std::chrono::seconds(60));
    if (!reduced) throw Error("k-means round lost its reduction");
    const PartialSums totals = PartialSums::from_values(**reduced);
    result.sse = totals.sse;
    const double shift = update_centroids(totals, result.centroids, dim);
    if (shift < params.epsilon) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace tbon::km
