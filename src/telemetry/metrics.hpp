// Per-node metrics for the in-band telemetry subsystem.
//
// Every tree node owns one MetricsRegistry: a set of lock-cheap (relaxed
// atomic) counters, gauges and one log2-bucketed latency histogram, updated
// from the node's event loop with no locks and no allocation.  A registry is
// snapshotted into a NodeTelemetry record — the plain-value unit that flows
// up the reserved telemetry stream, where interior nodes combine records
// with merge_records() (the `metrics_merge` built-in filter): the TBON
// aggregates observability data about itself with the same machinery its
// applications use (paper §2.2's built-in filters, dogfooded).
//
// merge_records() keeps, per node id, the record with the highest publish
// sequence number.  max-by-seq is associative and commutative, so the merge
// is insensitive to tree shape and to re-adoption moving a subtree's records
// onto a different path to the root.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/archive.hpp"

namespace tbon {

/// Buckets of the filter-latency histogram: bucket b counts executions with
/// duration in [1us << (b-1), 1us << b) (bucket 0: < 1us; last: overflow).
inline constexpr std::size_t kLatencyBuckets = 16;

/// Buckets of the packets-per-flush histogram kept by the batching
/// coalescer: bucket b counts flushes carrying (2^(b-1), 2^b] packets
/// (bucket 0: exactly 1; last: overflow).
inline constexpr std::size_t kBatchBuckets = 8;

/// One tenant's counter rollup inside a NodeTelemetry record (wire v6);
/// the collector aggregates these tree-wide by name.
struct TenantTelemetry {
  std::string name;
  std::uint64_t packets = 0;          ///< data packets sent on links
  std::uint64_t bytes = 0;            ///< payload bytes sent on links
  std::uint64_t sends_throttled = 0;  ///< sends delayed by the tenant budget
  std::uint64_t packets_shed = 0;     ///< packets dropped charged to the tenant

  bool operator==(const TenantTelemetry&) const = default;
};

/// Plain-value snapshot of one node's metrics — the record carried by
/// telemetry packets and returned by Network::node_metrics().
struct NodeTelemetry {
  std::uint32_t node = 0;
  std::uint8_t role = 0;  ///< 0 = root, 1 = internal, 2 = leaf
  std::uint64_t seq = 0;  ///< publish sequence; merge keeps the max per node

  // Counters (monotonic over the node's lifetime).
  std::uint64_t packets_up = 0;    ///< application data packets received from children
  std::uint64_t packets_down = 0;  ///< application data packets received from the parent
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t waves = 0;      ///< sync batches run through the upstream filter
  std::uint64_t filter_ns = 0;  ///< total time inside filter()
  std::uint64_t telemetry_packets = 0;  ///< telemetry-stream packets handled
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t peer_messages_routed = 0;
  std::uint64_t packets_dropped = 0;  ///< unroutable / unknown-stream drops
  std::uint64_t orphaned_events = 0;  ///< parent-channel losses seen
  std::uint64_t adoptions = 0;        ///< successful re-adoptions of this node
  std::uint64_t faults_injected = 0;  ///< injected crashes at this node
  std::uint64_t wire_bytes_out = 0;   ///< serialized bytes written (process mode)
  std::uint64_t wire_bytes_in = 0;    ///< serialized bytes read (process mode)

  // Flow control (credit-based; see src/core/flow_control.hpp).
  std::uint64_t fc_sends_blocked = 0;    ///< sends that waited for credits
  std::uint64_t fc_blocked_ns = 0;       ///< total time spent waiting for credits
  std::uint64_t fc_packets_shed = 0;     ///< packets dropped by flow control
  std::uint64_t fc_credits_consumed = 0; ///< credits spent sending data packets
  std::uint64_t fc_credits_granted = 0;  ///< credits returned to channel senders
  std::uint64_t fc_invalid_grants = 0;   ///< malformed/stale credit grants rejected

  // Parallel filter execution (src/core/executor.hpp).
  std::uint64_t exec_tasks = 0;      ///< filter tasks run on worker threads
  std::uint64_t exec_task_ns = 0;    ///< total worker busy time (utilization)
  std::uint64_t filter_custom_events = 0;  ///< TelemetryScope::count() bumps

  // Remote connection subsystem (src/net/; zero everywhere else).
  std::uint64_t net_accepts = 0;           ///< sockets accepted by the event loop
  std::uint64_t net_connects = 0;          ///< outbound link connections established
  std::uint64_t net_handshakes_failed = 0; ///< malformed/timed-out/rejected handshakes
  std::uint64_t net_reconnects = 0;        ///< parent channels re-established after loss
  std::uint64_t net_frames_in = 0;         ///< frames decoded by the event loop
  std::uint64_t net_frames_out = 0;        ///< frames fully written by the event loop
  std::uint64_t net_partial_writes = 0;    ///< writev calls that left a send in flight
  std::uint64_t net_wakeups = 0;           ///< eventfd wake-channel notifications

  // Adaptive small-packet batching (src/core/coalesce.hpp).
  std::uint64_t batch_frames_out = 0;      ///< coalescer flushes (frames handed to the wire)
  std::uint64_t batch_packets_out = 0;     ///< data packets those flushes carried
  std::uint64_t batch_flush_size = 0;      ///< flushes fired by byte/count thresholds
  std::uint64_t batch_flush_deadline = 0;  ///< flushes fired by the deadline timer
  std::uint64_t batch_flush_pressure = 0;  ///< flushes fired by credit-window exhaustion
  std::uint64_t batch_flush_eager = 0;     ///< flushes forced by control/large-payload bypass or close
  std::uint64_t batch_frames_in = 0;       ///< multi-packet wire frames decoded
  std::uint64_t batch_packets_in = 0;      ///< packets carried by decoded batch frames
  std::uint64_t batch_frames_rejected = 0; ///< malformed batch frames dropped (reader survives)

  // Multi-tenant streams (src/core/tenant.hpp; wire v6).
  std::uint64_t prio_drained_control = 0;  ///< executor tasks drained from the control class
  std::uint64_t prio_drained_high = 0;
  std::uint64_t prio_drained_normal = 0;
  std::uint64_t prio_drained_bulk = 0;
  std::uint64_t topic_packets_pruned = 0;  ///< downstream sends skipped: no subscriber below
  std::uint64_t tenant_sends_throttled = 0; ///< sum over tenants (convenience rollup)
  std::uint64_t tenant_packets_shed = 0;    ///< sum over tenants (convenience rollup)

  // Planned reconfiguration (src/core/reconfig.hpp; wire v7).
  std::uint64_t reconfig_ops = 0;         ///< reconfigure() operations applied (root)
  std::uint64_t reconfig_ops_failed = 0;  ///< operations rejected/failed/timed out (root)
  std::uint64_t reconfig_joins = 0;       ///< planned back-end joins wired (root)
  std::uint64_t reconfig_detaches = 0;    ///< planned departures applied at this parent
  std::uint64_t reconfig_moves = 0;       ///< times this node was re-homed (planned)
  std::uint64_t reconfig_splits = 0;      ///< interior splits applied (root)
  std::uint64_t reconfig_merges = 0;      ///< interior merges applied (root)
  std::uint64_t fc_weighted_grants = 0;   ///< grants paced by tenant credit share

  // Gauges (sampled at publish time).
  std::uint64_t inbox_depth = 0;  ///< envelopes queued in the node's inbox
  std::uint64_t sync_depth = 0;   ///< packets buffered across sync policies
  std::uint64_t fc_inflight_peak = 0;  ///< max credits in flight on any channel
  std::uint64_t fc_pending_depth = 0;  ///< packets queued in drop_oldest rings
  std::uint64_t exec_workers = 0;      ///< configured filter worker threads
  std::uint64_t exec_queue_depth = 0;  ///< tasks queued across worker shards
  std::uint64_t exec_queue_peak = 0;   ///< max depth any stream's run queue hit
  std::int64_t heartbeat_rtt_ns = -1;  ///< last parent heartbeat RTT; -1 unknown
  std::uint64_t net_connections = 0;     ///< sockets the event loop has owned (monotonic)
  std::uint64_t net_send_queue_peak = 0; ///< max bytes queued behind one socket
  std::uint64_t net_threads = 0;         ///< OS threads in this process (/proc/self/task)

  std::array<std::uint64_t, kLatencyBuckets> filter_latency_hist{};
  /// Packets-per-flush distribution (see kBatchBuckets).
  std::array<std::uint64_t, kBatchBuckets> batch_ppf_hist{};

  /// Per-tenant rollups from this node's TenantTable, in registration
  /// order.  Filled by the runtime at publish time (the registry's atomic
  /// counters cannot hold strings).
  std::vector<TenantTelemetry> tenants;

  friend bool operator==(const NodeTelemetry&, const NodeTelemetry&) = default;
};

/// Histogram bucket for a duration in nanoseconds (see kLatencyBuckets).
inline std::size_t latency_bucket(std::uint64_t ns) noexcept {
  const std::uint64_t us = ns >> 10;  // ~microseconds, power-of-two cheap
  if (us == 0) return 0;
  const auto b = static_cast<std::size_t>(std::bit_width(us));
  return b < kLatencyBuckets ? b : kLatencyBuckets - 1;
}

/// Histogram bucket for a flush of `packets` packets (see kBatchBuckets).
inline std::size_t batch_bucket(std::uint64_t packets) noexcept {
  if (packets <= 1) return 0;
  const auto b = static_cast<std::size_t>(std::bit_width(packets - 1));
  return b < kBatchBuckets ? b : kBatchBuckets - 1;
}

/// The live, writable side: one per NodeRuntime.  All mutators are relaxed
/// atomics — safe to bump from the runtime thread while another thread (the
/// Network's node_metrics(), tests) reads a snapshot.
class MetricsRegistry {
 public:
  using Counter = std::atomic<std::uint64_t>;

  Counter packets_up{0};
  Counter packets_down{0};
  Counter bytes_up{0};
  Counter bytes_down{0};
  Counter waves{0};
  Counter filter_ns{0};
  Counter telemetry_packets{0};
  Counter heartbeats_sent{0};
  Counter heartbeats_received{0};
  Counter peer_messages_routed{0};
  Counter packets_dropped{0};
  Counter orphaned_events{0};
  Counter adoptions{0};
  Counter faults_injected{0};
  Counter wire_bytes_out{0};
  Counter wire_bytes_in{0};

  Counter fc_sends_blocked{0};
  Counter fc_blocked_ns{0};
  Counter fc_packets_shed{0};
  Counter fc_credits_consumed{0};
  Counter fc_credits_granted{0};
  Counter fc_invalid_grants{0};

  Counter exec_tasks{0};
  Counter exec_task_ns{0};
  Counter filter_custom_events{0};

  Counter net_accepts{0};
  Counter net_connects{0};
  Counter net_handshakes_failed{0};
  Counter net_reconnects{0};
  Counter net_frames_in{0};
  Counter net_frames_out{0};
  Counter net_partial_writes{0};
  Counter net_wakeups{0};

  Counter batch_frames_out{0};
  Counter batch_packets_out{0};
  Counter batch_flush_size{0};
  Counter batch_flush_deadline{0};
  Counter batch_flush_pressure{0};
  Counter batch_flush_eager{0};
  Counter batch_frames_in{0};
  Counter batch_packets_in{0};
  Counter batch_frames_rejected{0};

  Counter prio_drained_control{0};
  Counter prio_drained_high{0};
  Counter prio_drained_normal{0};
  Counter prio_drained_bulk{0};
  Counter topic_packets_pruned{0};

  Counter reconfig_ops{0};
  Counter reconfig_ops_failed{0};
  Counter reconfig_joins{0};
  Counter reconfig_detaches{0};
  Counter reconfig_moves{0};
  Counter reconfig_splits{0};
  Counter reconfig_merges{0};
  Counter fc_weighted_grants{0};

  Counter inbox_depth{0};  ///< gauge, refreshed each telemetry tick
  Counter sync_depth{0};   ///< gauge, refreshed each telemetry tick
  Counter fc_inflight_peak{0};  ///< gauge, monotonic max (update_max)
  Counter fc_pending_depth{0};  ///< gauge, live delta-maintained
  Counter exec_workers{0};      ///< gauge, set once at executor start
  Counter exec_queue_depth{0};  ///< gauge, refreshed each telemetry tick
  Counter exec_queue_peak{0};   ///< gauge, monotonic max (update_max)
  std::atomic<std::int64_t> heartbeat_rtt_ns{-1};
  /// Monotonic count of sockets the loop has ever registered.  Not a live
  /// gauge on purpose: the tree snapshot is frozen at shutdown, when live
  /// connection counts have already collapsed to ~0 and churn (reconnects)
  /// is the interesting signal.
  Counter net_connections{0};
  Counter net_send_queue_peak{0}; ///< gauge, monotonic max (update_max)
  Counter net_threads{0};         ///< gauge, sampled by the loop from /proc

  /// Record one filter execution in the latency histogram.
  void observe_filter_latency(std::uint64_t ns) noexcept {
    hist_[latency_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Record one coalescer flush of `packets` packets.
  void observe_batch_flush(std::uint64_t packets) noexcept {
    batch_frames_out.fetch_add(1, std::memory_order_relaxed);
    batch_packets_out.fetch_add(packets, std::memory_order_relaxed);
    batch_hist_[batch_bucket(packets)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Snapshot into a record, advancing the publish sequence number.
  NodeTelemetry publish(std::uint32_t node, std::uint8_t role) noexcept {
    NodeTelemetry r = peek(node, role);
    r.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    return r;
  }

  /// Snapshot without advancing the sequence (introspection, tests).
  NodeTelemetry peek(std::uint32_t node, std::uint8_t role) const noexcept {
    NodeTelemetry r;
    r.node = node;
    r.role = role;
    r.seq = seq_.load(std::memory_order_relaxed);
    r.packets_up = packets_up.load(std::memory_order_relaxed);
    r.packets_down = packets_down.load(std::memory_order_relaxed);
    r.bytes_up = bytes_up.load(std::memory_order_relaxed);
    r.bytes_down = bytes_down.load(std::memory_order_relaxed);
    r.waves = waves.load(std::memory_order_relaxed);
    r.filter_ns = filter_ns.load(std::memory_order_relaxed);
    r.telemetry_packets = telemetry_packets.load(std::memory_order_relaxed);
    r.heartbeats_sent = heartbeats_sent.load(std::memory_order_relaxed);
    r.heartbeats_received = heartbeats_received.load(std::memory_order_relaxed);
    r.peer_messages_routed = peer_messages_routed.load(std::memory_order_relaxed);
    r.packets_dropped = packets_dropped.load(std::memory_order_relaxed);
    r.orphaned_events = orphaned_events.load(std::memory_order_relaxed);
    r.adoptions = adoptions.load(std::memory_order_relaxed);
    r.faults_injected = faults_injected.load(std::memory_order_relaxed);
    r.wire_bytes_out = wire_bytes_out.load(std::memory_order_relaxed);
    r.wire_bytes_in = wire_bytes_in.load(std::memory_order_relaxed);
    r.fc_sends_blocked = fc_sends_blocked.load(std::memory_order_relaxed);
    r.fc_blocked_ns = fc_blocked_ns.load(std::memory_order_relaxed);
    r.fc_packets_shed = fc_packets_shed.load(std::memory_order_relaxed);
    r.fc_credits_consumed = fc_credits_consumed.load(std::memory_order_relaxed);
    r.fc_credits_granted = fc_credits_granted.load(std::memory_order_relaxed);
    r.fc_invalid_grants = fc_invalid_grants.load(std::memory_order_relaxed);
    r.exec_tasks = exec_tasks.load(std::memory_order_relaxed);
    r.exec_task_ns = exec_task_ns.load(std::memory_order_relaxed);
    r.filter_custom_events = filter_custom_events.load(std::memory_order_relaxed);
    r.net_accepts = net_accepts.load(std::memory_order_relaxed);
    r.net_connects = net_connects.load(std::memory_order_relaxed);
    r.net_handshakes_failed = net_handshakes_failed.load(std::memory_order_relaxed);
    r.net_reconnects = net_reconnects.load(std::memory_order_relaxed);
    r.net_frames_in = net_frames_in.load(std::memory_order_relaxed);
    r.net_frames_out = net_frames_out.load(std::memory_order_relaxed);
    r.net_partial_writes = net_partial_writes.load(std::memory_order_relaxed);
    r.net_wakeups = net_wakeups.load(std::memory_order_relaxed);
    r.batch_frames_out = batch_frames_out.load(std::memory_order_relaxed);
    r.batch_packets_out = batch_packets_out.load(std::memory_order_relaxed);
    r.batch_flush_size = batch_flush_size.load(std::memory_order_relaxed);
    r.batch_flush_deadline = batch_flush_deadline.load(std::memory_order_relaxed);
    r.batch_flush_pressure = batch_flush_pressure.load(std::memory_order_relaxed);
    r.batch_flush_eager = batch_flush_eager.load(std::memory_order_relaxed);
    r.batch_frames_in = batch_frames_in.load(std::memory_order_relaxed);
    r.batch_packets_in = batch_packets_in.load(std::memory_order_relaxed);
    r.batch_frames_rejected = batch_frames_rejected.load(std::memory_order_relaxed);
    r.prio_drained_control = prio_drained_control.load(std::memory_order_relaxed);
    r.prio_drained_high = prio_drained_high.load(std::memory_order_relaxed);
    r.prio_drained_normal = prio_drained_normal.load(std::memory_order_relaxed);
    r.prio_drained_bulk = prio_drained_bulk.load(std::memory_order_relaxed);
    r.topic_packets_pruned = topic_packets_pruned.load(std::memory_order_relaxed);
    r.reconfig_ops = reconfig_ops.load(std::memory_order_relaxed);
    r.reconfig_ops_failed = reconfig_ops_failed.load(std::memory_order_relaxed);
    r.reconfig_joins = reconfig_joins.load(std::memory_order_relaxed);
    r.reconfig_detaches = reconfig_detaches.load(std::memory_order_relaxed);
    r.reconfig_moves = reconfig_moves.load(std::memory_order_relaxed);
    r.reconfig_splits = reconfig_splits.load(std::memory_order_relaxed);
    r.reconfig_merges = reconfig_merges.load(std::memory_order_relaxed);
    r.fc_weighted_grants = fc_weighted_grants.load(std::memory_order_relaxed);
    r.inbox_depth = inbox_depth.load(std::memory_order_relaxed);
    r.sync_depth = sync_depth.load(std::memory_order_relaxed);
    r.fc_inflight_peak = fc_inflight_peak.load(std::memory_order_relaxed);
    r.fc_pending_depth = fc_pending_depth.load(std::memory_order_relaxed);
    r.exec_workers = exec_workers.load(std::memory_order_relaxed);
    r.exec_queue_depth = exec_queue_depth.load(std::memory_order_relaxed);
    r.exec_queue_peak = exec_queue_peak.load(std::memory_order_relaxed);
    r.heartbeat_rtt_ns = heartbeat_rtt_ns.load(std::memory_order_relaxed);
    r.net_connections = net_connections.load(std::memory_order_relaxed);
    r.net_send_queue_peak = net_send_queue_peak.load(std::memory_order_relaxed);
    r.net_threads = net_threads.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
      r.filter_latency_hist[b] = hist_[b].load(std::memory_order_relaxed);
    }
    for (std::size_t b = 0; b < kBatchBuckets; ++b) {
      r.batch_ppf_hist[b] = batch_hist_[b].load(std::memory_order_relaxed);
    }
    return r;
  }

 private:
  std::atomic<std::uint64_t> seq_{0};
  std::array<Counter, kLatencyBuckets> hist_{};
  std::array<Counter, kBatchBuckets> batch_hist_{};
};

/// Monotonic-max update for peak-style gauges (fc_inflight_peak).
inline void update_max(MetricsRegistry::Counter& counter,
                       std::uint64_t value) noexcept {
  std::uint64_t current = counter.load(std::memory_order_relaxed);
  while (current < value && !counter.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

// ---- wire form and merge ----------------------------------------------------

/// Serialize records into the payload of a telemetry packet.
Bytes serialize_records(std::span<const NodeTelemetry> records);

/// Inverse of serialize_records; throws CodecError on malformed input.
std::vector<NodeTelemetry> deserialize_records(std::span<const std::byte> payload);

/// Merge record sets: per node id, the record with the highest seq wins
/// (ties keep the left operand's).  Output is sorted by node id.  This
/// operation is associative and commutative — see test_telemetry.cpp.
std::vector<NodeTelemetry> merge_records(std::span<const NodeTelemetry> a,
                                         std::span<const NodeTelemetry> b);

}  // namespace tbon
