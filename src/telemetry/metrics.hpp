// Per-node metrics for the in-band telemetry subsystem.
//
// Every tree node owns one MetricsRegistry: a set of lock-cheap (relaxed
// atomic) counters, gauges and log2-bucketed histograms, updated from the
// node's event loop with no locks and no allocation.  A registry is
// snapshotted into a NodeTelemetry record — the plain-value unit that flows
// up the reserved telemetry stream, where interior nodes combine records
// with merge_records() (the `metrics_merge` built-in filter): the TBON
// aggregates observability data about itself with the same machinery its
// applications use (paper §2.2's built-in filters, dogfooded).
//
// Each metric is declared once, in TBON_NODE_METRICS or TBON_NODE_HISTOGRAMS
// below.  The record's members, the registry's atomics, peek(), the wire
// codec (metrics.cpp) and the front-end's tree total and JSON
// (collector.cpp) are expansions of those two lists.
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

/// How TreeMetricsSnapshot::total combines one metric across nodes.
enum class MetricTotal : std::uint8_t {
  kSum,  ///< the tree-wide amount
  kMax,  ///< the largest node's value (peaks, heartbeat RTT)
};

/// Every per-node scalar metric, as X(type, name, initial value,
/// MetricTotal).  Adding one is a line here plus the code that updates it.
/// List order is the registry's member order and the wire order, so any
/// change to the list bumps kTelemetryWireVersion.
#define TBON_NODE_METRICS(X)                                                                  \
  /* Counters, monotonic over the node's lifetime. */                                         \
  X(std::uint64_t, packets_up, 0, kSum)             /* data packets received from children */ \
  X(std::uint64_t, packets_down, 0, kSum)           /* data packets received from parent */   \
  X(std::uint64_t, bytes_up, 0, kSum)                                                         \
  X(std::uint64_t, bytes_down, 0, kSum)                                                       \
  X(std::uint64_t, waves, 0, kSum)                  /* sync batches through the up filter */  \
  X(std::uint64_t, filter_ns, 0, kSum)              /* total time inside filter() */          \
  X(std::uint64_t, telemetry_packets, 0, kSum)      /* telemetry-stream packets handled */    \
  X(std::uint64_t, heartbeats_sent, 0, kSum)                                                  \
  X(std::uint64_t, heartbeats_received, 0, kSum)                                              \
  X(std::uint64_t, peer_messages_routed, 0, kSum)                                             \
  X(std::uint64_t, packets_dropped, 0, kSum)        /* unroutable / unknown-stream drops */   \
  X(std::uint64_t, orphaned_events, 0, kSum)        /* parent-channel losses seen */          \
  X(std::uint64_t, adoptions, 0, kSum)              /* re-adoptions of this node */           \
  X(std::uint64_t, faults_injected, 0, kSum)        /* injected crashes at this node */       \
  X(std::uint64_t, wire_bytes_out, 0, kSum)         /* serialized bytes written */            \
  X(std::uint64_t, wire_bytes_in, 0, kSum)          /* serialized bytes read */               \
  /* Flow control (src/core/flow_control.hpp). */                                             \
  X(std::uint64_t, fc_sends_blocked, 0, kSum)       /* sends that waited for credits */       \
  X(std::uint64_t, fc_blocked_ns, 0, kSum)          /* time spent waiting for credits */      \
  X(std::uint64_t, fc_packets_shed, 0, kSum)        /* packets dropped by flow control */     \
  X(std::uint64_t, fc_credits_consumed, 0, kSum)    /* credits spent sending data packets */  \
  X(std::uint64_t, fc_credits_granted, 0, kSum)     /* credits returned to senders */         \
  X(std::uint64_t, fc_invalid_grants, 0, kSum)      /* malformed/stale grants rejected */     \
  /* Parallel filter execution (src/core/executor.hpp). */                                    \
  X(std::uint64_t, exec_tasks, 0, kSum)             /* filter tasks run on workers */         \
  X(std::uint64_t, exec_task_ns, 0, kSum)           /* total worker busy time */              \
  X(std::uint64_t, filter_custom_events, 0, kSum)   /* TelemetryScope::count() bumps */       \
  /* Remote connection subsystem (src/net/; zero everywhere else). */                         \
  X(std::uint64_t, net_accepts, 0, kSum)            /* sockets accepted by the loop */        \
  X(std::uint64_t, net_connects, 0, kSum)           /* outbound links connected */            \
  X(std::uint64_t, net_handshakes_failed, 0, kSum)  /* bad/timed-out/rejected handshakes */   \
  X(std::uint64_t, net_reconnects, 0, kSum)         /* parent channels re-established */      \
  X(std::uint64_t, net_frames_in, 0, kSum)          /* frames decoded by the loop */          \
  X(std::uint64_t, net_frames_out, 0, kSum)         /* frames fully written by the loop */    \
  X(std::uint64_t, net_partial_writes, 0, kSum)     /* writevs that left a send in flight */  \
  X(std::uint64_t, net_wakeups, 0, kSum)            /* eventfd wake-channel notifications */  \
  /* Adaptive small-packet batching (src/core/coalesce.hpp). */                               \
  X(std::uint64_t, batch_frames_out, 0, kSum)       /* coalescer flushes (frames out) */      \
  X(std::uint64_t, batch_packets_out, 0, kSum)      /* data packets those flushes carried */  \
  X(std::uint64_t, batch_flush_size, 0, kSum)       /* flushes on byte/count thresholds */    \
  X(std::uint64_t, batch_flush_deadline, 0, kSum)   /* flushes on the deadline timer */       \
  X(std::uint64_t, batch_flush_pressure, 0, kSum)   /* flushes on an exhausted window */      \
  X(std::uint64_t, batch_flush_eager, 0, kSum)      /* flushes on bypass or close */          \
  X(std::uint64_t, batch_frames_in, 0, kSum)        /* multi-packet frames decoded */         \
  X(std::uint64_t, batch_packets_in, 0, kSum)       /* packets those frames carried */        \
  X(std::uint64_t, batch_frames_rejected, 0, kSum)  /* malformed batch frames dropped */      \
  /* Multi-tenant streams (src/core/tenant.hpp). */                                           \
  X(std::uint64_t, prio_drained_control, 0, kSum)   /* executor tasks drained, per class */   \
  X(std::uint64_t, prio_drained_high, 0, kSum)                                                \
  X(std::uint64_t, prio_drained_normal, 0, kSum)                                              \
  X(std::uint64_t, prio_drained_bulk, 0, kSum)                                                \
  X(std::uint64_t, topic_packets_pruned, 0, kSum)   /* sends skipped: no subscriber below */  \
  /* Planned reconfiguration (src/core/reconfig.hpp). */                                      \
  X(std::uint64_t, reconfig_ops, 0, kSum)           /* reconfigure() ops applied (root) */    \
  X(std::uint64_t, reconfig_ops_failed, 0, kSum)    /* ops rejected/failed/timed out */       \
  X(std::uint64_t, reconfig_joins, 0, kSum)         /* planned joins wired (root) */          \
  X(std::uint64_t, reconfig_detaches, 0, kSum)      /* planned departures applied here */     \
  X(std::uint64_t, reconfig_moves, 0, kSum)         /* times this node was re-homed */        \
  X(std::uint64_t, reconfig_splits, 0, kSum)        /* interior splits applied (root) */      \
  X(std::uint64_t, reconfig_merges, 0, kSum)        /* interior merges applied (root) */      \
  X(std::uint64_t, fc_weighted_grants, 0, kSum)     /* grants paced by tenant share */        \
  /* Gauges; *_peak only grow (update_max). */                                                \
  X(std::uint64_t, inbox_depth, 0, kSum)            /* envelopes queued in the inbox */       \
  X(std::uint64_t, sync_depth, 0, kSum)             /* packets buffered in sync policies */   \
  X(std::uint64_t, fc_inflight_peak, 0, kMax)       /* credits in flight on any channel */    \
  X(std::uint64_t, fc_pending_depth, 0, kSum)       /* packets in drop_oldest rings */        \
  X(std::uint64_t, exec_workers, 0, kSum)           /* configured filter worker threads */    \
  X(std::uint64_t, exec_queue_depth, 0, kSum)       /* tasks queued across worker shards */   \
  X(std::uint64_t, exec_queue_peak, 0, kMax)        /* deepest stream run queue */            \
  X(std::int64_t, heartbeat_rtt_ns, -1, kMax)       /* parent heartbeat RTT; -1 unknown */    \
  /* Monotonic on purpose: a live count reads ~0 in the final snapshot. */                    \
  X(std::uint64_t, net_connections, 0, kSum)        /* sockets the loop ever registered */    \
  X(std::uint64_t, net_send_queue_peak, 0, kMax)    /* bytes queued behind one socket */      \
  X(std::uint64_t, net_threads, 0, kSum)            /* OS threads in this process */

/// Every per-node histogram, as H(name, buckets): an array of counts,
/// summed bucket by bucket in the tree total.
#define TBON_NODE_HISTOGRAMS(H)                                                               \
  H(filter_latency_hist, kLatencyBuckets)  /* filter run time (latency_bucket) */             \
  H(batch_ppf_hist, kBatchBuckets)         /* packets per flush (batch_bucket) */

/// Version of the serialized record: the header (node, role, seq), every
/// TBON_NODE_METRICS entry, every TBON_NODE_HISTOGRAMS bucket and the tenant
/// rows, in that order.  Every node runs one binary, and a decoder rejects
/// any other version.
inline constexpr std::uint8_t kTelemetryWireVersion = 8;

/// One tenant's counter rollup inside a NodeTelemetry record; the collector
/// aggregates these tree-wide by name.
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

#define TBON_RECORD_METRIC(type, name, init, rule) type name = init;
  TBON_NODE_METRICS(TBON_RECORD_METRIC)
#undef TBON_RECORD_METRIC
#define TBON_RECORD_HISTOGRAM(name, buckets) std::array<std::uint64_t, buckets> name{};
  TBON_NODE_HISTOGRAMS(TBON_RECORD_HISTOGRAM)
#undef TBON_RECORD_HISTOGRAM

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

/// The live, writable side: one per NodeRuntime, holding one relaxed atomic
/// per TBON_NODE_METRICS entry with the record member's name, type and
/// initial value.  Safe to bump from the runtime thread while another
/// thread (the Network's node_metrics(), tests) reads a snapshot.
class MetricsRegistry {
 public:
  using Counter = std::atomic<std::uint64_t>;

#define TBON_REGISTRY_METRIC(type, name, init, rule) std::atomic<type> name{init};
  TBON_NODE_METRICS(TBON_REGISTRY_METRIC)
#undef TBON_REGISTRY_METRIC

  /// Record one filter execution in the latency histogram.
  void observe_filter_latency(std::uint64_t ns) noexcept {
    filter_latency_hist_[latency_bucket(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Record one coalescer flush of `packets` packets.
  void observe_batch_flush(std::uint64_t packets) noexcept {
    batch_frames_out.fetch_add(1, std::memory_order_relaxed);
    batch_packets_out.fetch_add(packets, std::memory_order_relaxed);
    batch_ppf_hist_[batch_bucket(packets)].fetch_add(1, std::memory_order_relaxed);
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
#define TBON_PEEK_METRIC(type, name, init, rule) \
    r.name = name.load(std::memory_order_relaxed);
    TBON_NODE_METRICS(TBON_PEEK_METRIC)
#undef TBON_PEEK_METRIC
#define TBON_PEEK_HISTOGRAM(name, buckets)                   \
    for (std::size_t b = 0; b < buckets; ++b) {              \
      r.name[b] = name##_[b].load(std::memory_order_relaxed); \
    }
    TBON_NODE_HISTOGRAMS(TBON_PEEK_HISTOGRAM)
#undef TBON_PEEK_HISTOGRAM
    return r;
  }

 private:
  std::atomic<std::uint64_t> seq_{0};
#define TBON_REGISTRY_HISTOGRAM(name, buckets) std::array<Counter, buckets> name##_{};
  TBON_NODE_HISTOGRAMS(TBON_REGISTRY_HISTOGRAM)
#undef TBON_REGISTRY_HISTOGRAM
};

/// Monotonic-max update for the *_peak gauges.
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
