#include "telemetry/metrics.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace tbon {
namespace {

// v2: flow-control counters + gauges appended (credit-based flow control).
// v3: parallel-filter-execution counters + gauges appended (FilterExecutor).
// v4: remote connection-subsystem counters + gauges appended (src/net/).
// v5: small-packet batching counters + packets-per-flush histogram appended.
// v6: multi-tenant counters (priority drain, topic pruning, tenant rollups)
//     + variable-length per-tenant entries appended.
// v7: planned-reconfiguration counters + weighted-grant counter appended.
constexpr std::uint8_t kWireVersion = 7;

/// Upper bound on per-tenant entries in one record; a decoded count above
/// this is malformed (a hostile count must not pre-reserve unbounded memory).
constexpr std::uint32_t kMaxTenantEntries = 1u << 16;

void put_record(BinaryWriter& writer, const NodeTelemetry& r) {
  writer.put(r.node);
  writer.put(r.role);
  writer.put(r.seq);
  writer.put(r.packets_up);
  writer.put(r.packets_down);
  writer.put(r.bytes_up);
  writer.put(r.bytes_down);
  writer.put(r.waves);
  writer.put(r.filter_ns);
  writer.put(r.telemetry_packets);
  writer.put(r.heartbeats_sent);
  writer.put(r.heartbeats_received);
  writer.put(r.peer_messages_routed);
  writer.put(r.packets_dropped);
  writer.put(r.orphaned_events);
  writer.put(r.adoptions);
  writer.put(r.faults_injected);
  writer.put(r.wire_bytes_out);
  writer.put(r.wire_bytes_in);
  writer.put(r.fc_sends_blocked);
  writer.put(r.fc_blocked_ns);
  writer.put(r.fc_packets_shed);
  writer.put(r.fc_credits_consumed);
  writer.put(r.fc_credits_granted);
  writer.put(r.fc_invalid_grants);
  writer.put(r.exec_tasks);
  writer.put(r.exec_task_ns);
  writer.put(r.filter_custom_events);
  writer.put(r.net_accepts);
  writer.put(r.net_connects);
  writer.put(r.net_handshakes_failed);
  writer.put(r.net_reconnects);
  writer.put(r.net_frames_in);
  writer.put(r.net_frames_out);
  writer.put(r.net_partial_writes);
  writer.put(r.net_wakeups);
  writer.put(r.batch_frames_out);
  writer.put(r.batch_packets_out);
  writer.put(r.batch_flush_size);
  writer.put(r.batch_flush_deadline);
  writer.put(r.batch_flush_pressure);
  writer.put(r.batch_flush_eager);
  writer.put(r.batch_frames_in);
  writer.put(r.batch_packets_in);
  writer.put(r.batch_frames_rejected);
  writer.put(r.inbox_depth);
  writer.put(r.sync_depth);
  writer.put(r.fc_inflight_peak);
  writer.put(r.fc_pending_depth);
  writer.put(r.exec_workers);
  writer.put(r.exec_queue_depth);
  writer.put(r.exec_queue_peak);
  writer.put(r.heartbeat_rtt_ns);
  writer.put(r.net_connections);
  writer.put(r.net_send_queue_peak);
  writer.put(r.net_threads);
  for (const std::uint64_t count : r.filter_latency_hist) writer.put(count);
  for (const std::uint64_t count : r.batch_ppf_hist) writer.put(count);
  writer.put(r.prio_drained_control);
  writer.put(r.prio_drained_high);
  writer.put(r.prio_drained_normal);
  writer.put(r.prio_drained_bulk);
  writer.put(r.topic_packets_pruned);
  writer.put(r.tenant_sends_throttled);
  writer.put(r.tenant_packets_shed);
  writer.put(static_cast<std::uint32_t>(r.tenants.size()));
  for (const TenantTelemetry& t : r.tenants) {
    writer.put_string(t.name);
    writer.put(t.packets);
    writer.put(t.bytes);
    writer.put(t.sends_throttled);
    writer.put(t.packets_shed);
  }
  writer.put(r.reconfig_ops);
  writer.put(r.reconfig_ops_failed);
  writer.put(r.reconfig_joins);
  writer.put(r.reconfig_detaches);
  writer.put(r.reconfig_moves);
  writer.put(r.reconfig_splits);
  writer.put(r.reconfig_merges);
  writer.put(r.fc_weighted_grants);
}

NodeTelemetry get_record(BinaryReader& reader) {
  NodeTelemetry r;
  r.node = reader.get<std::uint32_t>();
  r.role = reader.get<std::uint8_t>();
  r.seq = reader.get<std::uint64_t>();
  r.packets_up = reader.get<std::uint64_t>();
  r.packets_down = reader.get<std::uint64_t>();
  r.bytes_up = reader.get<std::uint64_t>();
  r.bytes_down = reader.get<std::uint64_t>();
  r.waves = reader.get<std::uint64_t>();
  r.filter_ns = reader.get<std::uint64_t>();
  r.telemetry_packets = reader.get<std::uint64_t>();
  r.heartbeats_sent = reader.get<std::uint64_t>();
  r.heartbeats_received = reader.get<std::uint64_t>();
  r.peer_messages_routed = reader.get<std::uint64_t>();
  r.packets_dropped = reader.get<std::uint64_t>();
  r.orphaned_events = reader.get<std::uint64_t>();
  r.adoptions = reader.get<std::uint64_t>();
  r.faults_injected = reader.get<std::uint64_t>();
  r.wire_bytes_out = reader.get<std::uint64_t>();
  r.wire_bytes_in = reader.get<std::uint64_t>();
  r.fc_sends_blocked = reader.get<std::uint64_t>();
  r.fc_blocked_ns = reader.get<std::uint64_t>();
  r.fc_packets_shed = reader.get<std::uint64_t>();
  r.fc_credits_consumed = reader.get<std::uint64_t>();
  r.fc_credits_granted = reader.get<std::uint64_t>();
  r.fc_invalid_grants = reader.get<std::uint64_t>();
  r.exec_tasks = reader.get<std::uint64_t>();
  r.exec_task_ns = reader.get<std::uint64_t>();
  r.filter_custom_events = reader.get<std::uint64_t>();
  r.net_accepts = reader.get<std::uint64_t>();
  r.net_connects = reader.get<std::uint64_t>();
  r.net_handshakes_failed = reader.get<std::uint64_t>();
  r.net_reconnects = reader.get<std::uint64_t>();
  r.net_frames_in = reader.get<std::uint64_t>();
  r.net_frames_out = reader.get<std::uint64_t>();
  r.net_partial_writes = reader.get<std::uint64_t>();
  r.net_wakeups = reader.get<std::uint64_t>();
  r.batch_frames_out = reader.get<std::uint64_t>();
  r.batch_packets_out = reader.get<std::uint64_t>();
  r.batch_flush_size = reader.get<std::uint64_t>();
  r.batch_flush_deadline = reader.get<std::uint64_t>();
  r.batch_flush_pressure = reader.get<std::uint64_t>();
  r.batch_flush_eager = reader.get<std::uint64_t>();
  r.batch_frames_in = reader.get<std::uint64_t>();
  r.batch_packets_in = reader.get<std::uint64_t>();
  r.batch_frames_rejected = reader.get<std::uint64_t>();
  r.inbox_depth = reader.get<std::uint64_t>();
  r.sync_depth = reader.get<std::uint64_t>();
  r.fc_inflight_peak = reader.get<std::uint64_t>();
  r.fc_pending_depth = reader.get<std::uint64_t>();
  r.exec_workers = reader.get<std::uint64_t>();
  r.exec_queue_depth = reader.get<std::uint64_t>();
  r.exec_queue_peak = reader.get<std::uint64_t>();
  r.heartbeat_rtt_ns = reader.get<std::int64_t>();
  r.net_connections = reader.get<std::uint64_t>();
  r.net_send_queue_peak = reader.get<std::uint64_t>();
  r.net_threads = reader.get<std::uint64_t>();
  for (std::uint64_t& count : r.filter_latency_hist) {
    count = reader.get<std::uint64_t>();
  }
  for (std::uint64_t& count : r.batch_ppf_hist) {
    count = reader.get<std::uint64_t>();
  }
  r.prio_drained_control = reader.get<std::uint64_t>();
  r.prio_drained_high = reader.get<std::uint64_t>();
  r.prio_drained_normal = reader.get<std::uint64_t>();
  r.prio_drained_bulk = reader.get<std::uint64_t>();
  r.topic_packets_pruned = reader.get<std::uint64_t>();
  r.tenant_sends_throttled = reader.get<std::uint64_t>();
  r.tenant_packets_shed = reader.get<std::uint64_t>();
  const auto tenant_count = reader.get<std::uint32_t>();
  if (tenant_count > kMaxTenantEntries) {
    throw CodecError("telemetry tenant entry count out of range");
  }
  r.tenants.reserve(tenant_count);
  for (std::uint32_t i = 0; i < tenant_count; ++i) {
    TenantTelemetry t;
    t.name = reader.get_string();
    t.packets = reader.get<std::uint64_t>();
    t.bytes = reader.get<std::uint64_t>();
    t.sends_throttled = reader.get<std::uint64_t>();
    t.packets_shed = reader.get<std::uint64_t>();
    r.tenants.push_back(std::move(t));
  }
  r.reconfig_ops = reader.get<std::uint64_t>();
  r.reconfig_ops_failed = reader.get<std::uint64_t>();
  r.reconfig_joins = reader.get<std::uint64_t>();
  r.reconfig_detaches = reader.get<std::uint64_t>();
  r.reconfig_moves = reader.get<std::uint64_t>();
  r.reconfig_splits = reader.get<std::uint64_t>();
  r.reconfig_merges = reader.get<std::uint64_t>();
  r.fc_weighted_grants = reader.get<std::uint64_t>();
  return r;
}

}  // namespace

Bytes serialize_records(std::span<const NodeTelemetry> records) {
  BinaryWriter writer;
  writer.put(kWireVersion);
  writer.put(static_cast<std::uint32_t>(records.size()));
  for (const NodeTelemetry& r : records) put_record(writer, r);
  return writer.take();
}

std::vector<NodeTelemetry> deserialize_records(std::span<const std::byte> payload) {
  BinaryReader reader(payload);
  const auto version = reader.get<std::uint8_t>();
  if (version != kWireVersion) {
    throw CodecError("unsupported telemetry wire version " + std::to_string(version));
  }
  const auto count = reader.get<std::uint32_t>();
  std::vector<NodeTelemetry> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) records.push_back(get_record(reader));
  return records;
}

std::vector<NodeTelemetry> merge_records(std::span<const NodeTelemetry> a,
                                         std::span<const NodeTelemetry> b) {
  std::map<std::uint32_t, NodeTelemetry> by_node;
  for (const NodeTelemetry& r : a) {
    const auto it = by_node.find(r.node);
    if (it == by_node.end() || r.seq > it->second.seq) by_node[r.node] = r;
  }
  for (const NodeTelemetry& r : b) {
    const auto it = by_node.find(r.node);
    if (it == by_node.end() || r.seq > it->second.seq) by_node[r.node] = r;
  }
  std::vector<NodeTelemetry> merged;
  merged.reserve(by_node.size());
  for (auto& [node, record] : by_node) merged.push_back(std::move(record));
  return merged;
}

}  // namespace tbon
