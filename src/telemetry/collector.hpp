// Front-end side of the telemetry subsystem: accumulates the merged records
// arriving on the reserved telemetry stream into a live model of the tree,
// ages out nodes that stopped reporting (died without a successor publish),
// and renders typed or JSON snapshots for FrontEnd::metrics().
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "telemetry/metrics.hpp"

namespace tbon {

/// Tree-wide view assembled by the front-end: one record per live node plus
/// field-wise aggregates and cross-node summaries.
struct TreeMetricsSnapshot {
  /// Live nodes (reported within the age-out window), sorted by node id.
  std::vector<NodeTelemetry> nodes;

  /// Field-wise combination of `nodes`: each TBON_NODE_METRICS entry by its
  /// MetricTotal rule (a sum, or the max for the peak gauges and
  /// heartbeat_rtt_ns), histograms bucket by bucket, tenant rows by name.
  /// node, seq and role are meaningless and left 0.
  NodeTelemetry total;

  /// Cross-node distributions (count/mean/p50/p95 over per-node values).
  Summary filter_ms_per_node;     ///< cumulative filter time, milliseconds
  Summary packets_up_per_node;
  Summary inbox_depth_per_node;

  std::size_t nodes_reporting = 0;  ///< == nodes.size()

  /// Record for one node, or nullptr if it is not (or no longer) reporting.
  const NodeTelemetry* find(std::uint32_t node) const noexcept;

  /// Machine-readable dump for external tooling.
  std::string to_json() const;
};

/// Thread-safe accumulator fed by the root's telemetry-stream results.
class TelemetryCollector {
 public:
  /// `age_out_ns`: a node whose latest record is older than this is dropped
  /// from snapshots (it died, or its subtree is partitioned).
  explicit TelemetryCollector(std::int64_t age_out_ns) : age_out_ns_(age_out_ns) {}

  /// Ingest one telemetry packet payload (serialized records).
  /// Malformed payloads are counted and dropped, never thrown.
  void ingest(std::span<const std::byte> payload);

  void ingest_records(std::span<const NodeTelemetry> records);

  /// Stop aging: every node reporting at freeze time stays in snapshots
  /// forever.  Called when the network completes shutdown so post-shutdown
  /// metrics() reflect the final flush instead of an empty, aged-out tree.
  void freeze();

  TreeMetricsSnapshot snapshot() const;

  std::uint64_t malformed_payloads() const;

 private:
  std::int64_t effective_now() const;

  mutable std::mutex mutex_;
  std::int64_t age_out_ns_;
  std::optional<std::int64_t> frozen_at_;
  std::uint64_t malformed_ = 0;
  /// node id -> (latest record, local monotonic arrival time).
  std::map<std::uint32_t, std::pair<NodeTelemetry, std::int64_t>> nodes_;
};

}  // namespace tbon
