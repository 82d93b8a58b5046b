#include "telemetry/collector.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace tbon {
namespace {

void accumulate(NodeTelemetry& total, const NodeTelemetry& r) {
  total.packets_up += r.packets_up;
  total.packets_down += r.packets_down;
  total.bytes_up += r.bytes_up;
  total.bytes_down += r.bytes_down;
  total.waves += r.waves;
  total.filter_ns += r.filter_ns;
  total.telemetry_packets += r.telemetry_packets;
  total.heartbeats_sent += r.heartbeats_sent;
  total.heartbeats_received += r.heartbeats_received;
  total.peer_messages_routed += r.peer_messages_routed;
  total.packets_dropped += r.packets_dropped;
  total.orphaned_events += r.orphaned_events;
  total.adoptions += r.adoptions;
  total.faults_injected += r.faults_injected;
  total.wire_bytes_out += r.wire_bytes_out;
  total.wire_bytes_in += r.wire_bytes_in;
  total.fc_sends_blocked += r.fc_sends_blocked;
  total.fc_blocked_ns += r.fc_blocked_ns;
  total.fc_packets_shed += r.fc_packets_shed;
  total.fc_credits_consumed += r.fc_credits_consumed;
  total.fc_credits_granted += r.fc_credits_granted;
  total.fc_invalid_grants += r.fc_invalid_grants;
  total.exec_tasks += r.exec_tasks;
  total.exec_task_ns += r.exec_task_ns;
  total.filter_custom_events += r.filter_custom_events;
  total.net_accepts += r.net_accepts;
  total.net_connects += r.net_connects;
  total.net_handshakes_failed += r.net_handshakes_failed;
  total.net_reconnects += r.net_reconnects;
  total.net_frames_in += r.net_frames_in;
  total.net_frames_out += r.net_frames_out;
  total.net_partial_writes += r.net_partial_writes;
  total.net_wakeups += r.net_wakeups;
  total.batch_frames_out += r.batch_frames_out;
  total.batch_packets_out += r.batch_packets_out;
  total.batch_flush_size += r.batch_flush_size;
  total.batch_flush_deadline += r.batch_flush_deadline;
  total.batch_flush_pressure += r.batch_flush_pressure;
  total.batch_flush_eager += r.batch_flush_eager;
  total.batch_frames_in += r.batch_frames_in;
  total.batch_packets_in += r.batch_packets_in;
  total.batch_frames_rejected += r.batch_frames_rejected;
  total.inbox_depth += r.inbox_depth;
  total.sync_depth += r.sync_depth;
  total.fc_inflight_peak = std::max(total.fc_inflight_peak, r.fc_inflight_peak);
  total.fc_pending_depth += r.fc_pending_depth;
  total.exec_workers += r.exec_workers;
  total.exec_queue_depth += r.exec_queue_depth;
  total.exec_queue_peak = std::max(total.exec_queue_peak, r.exec_queue_peak);
  total.heartbeat_rtt_ns = std::max(total.heartbeat_rtt_ns, r.heartbeat_rtt_ns);
  total.net_connections += r.net_connections;
  total.net_send_queue_peak =
      std::max(total.net_send_queue_peak, r.net_send_queue_peak);
  total.net_threads += r.net_threads;
  total.prio_drained_control += r.prio_drained_control;
  total.prio_drained_high += r.prio_drained_high;
  total.prio_drained_normal += r.prio_drained_normal;
  total.prio_drained_bulk += r.prio_drained_bulk;
  total.topic_packets_pruned += r.topic_packets_pruned;
  total.tenant_sends_throttled += r.tenant_sends_throttled;
  total.tenant_packets_shed += r.tenant_packets_shed;
  total.reconfig_ops += r.reconfig_ops;
  total.reconfig_ops_failed += r.reconfig_ops_failed;
  total.reconfig_joins += r.reconfig_joins;
  total.reconfig_detaches += r.reconfig_detaches;
  total.reconfig_moves += r.reconfig_moves;
  total.reconfig_splits += r.reconfig_splits;
  total.reconfig_merges += r.reconfig_merges;
  total.fc_weighted_grants += r.fc_weighted_grants;
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
    total.filter_latency_hist[b] += r.filter_latency_hist[b];
  }
  for (std::size_t b = 0; b < kBatchBuckets; ++b) {
    total.batch_ppf_hist[b] += r.batch_ppf_hist[b];
  }
  // Tenant rollups merge by name so the tree-wide total reads as one row
  // per tenant regardless of which nodes carried its traffic.
  for (const TenantTelemetry& t : r.tenants) {
    auto it = std::find_if(total.tenants.begin(), total.tenants.end(),
                           [&](const TenantTelemetry& x) { return x.name == t.name; });
    if (it == total.tenants.end()) {
      total.tenants.push_back(t);
    } else {
      it->packets += t.packets;
      it->bytes += t.bytes;
      it->sends_throttled += t.sends_throttled;
      it->packets_shed += t.packets_shed;
    }
  }
}

void json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void json_record(std::ostringstream& out, const NodeTelemetry& r) {
  out << "{\"node\":" << r.node << ",\"role\":" << static_cast<unsigned>(r.role)
      << ",\"seq\":" << r.seq << ",\"packets_up\":" << r.packets_up
      << ",\"packets_down\":" << r.packets_down << ",\"bytes_up\":" << r.bytes_up
      << ",\"bytes_down\":" << r.bytes_down << ",\"waves\":" << r.waves
      << ",\"filter_ns\":" << r.filter_ns
      << ",\"telemetry_packets\":" << r.telemetry_packets
      << ",\"heartbeats_sent\":" << r.heartbeats_sent
      << ",\"heartbeats_received\":" << r.heartbeats_received
      << ",\"peer_messages_routed\":" << r.peer_messages_routed
      << ",\"packets_dropped\":" << r.packets_dropped
      << ",\"orphaned_events\":" << r.orphaned_events
      << ",\"adoptions\":" << r.adoptions
      << ",\"faults_injected\":" << r.faults_injected
      << ",\"wire_bytes_out\":" << r.wire_bytes_out
      << ",\"wire_bytes_in\":" << r.wire_bytes_in
      << ",\"fc_sends_blocked\":" << r.fc_sends_blocked
      << ",\"fc_blocked_ns\":" << r.fc_blocked_ns
      << ",\"fc_packets_shed\":" << r.fc_packets_shed
      << ",\"fc_credits_consumed\":" << r.fc_credits_consumed
      << ",\"fc_credits_granted\":" << r.fc_credits_granted
      << ",\"fc_invalid_grants\":" << r.fc_invalid_grants
      << ",\"exec_tasks\":" << r.exec_tasks
      << ",\"exec_task_ns\":" << r.exec_task_ns
      << ",\"filter_custom_events\":" << r.filter_custom_events
      << ",\"net_accepts\":" << r.net_accepts
      << ",\"net_connects\":" << r.net_connects
      << ",\"net_handshakes_failed\":" << r.net_handshakes_failed
      << ",\"net_reconnects\":" << r.net_reconnects
      << ",\"net_frames_in\":" << r.net_frames_in
      << ",\"net_frames_out\":" << r.net_frames_out
      << ",\"net_partial_writes\":" << r.net_partial_writes
      << ",\"net_wakeups\":" << r.net_wakeups
      << ",\"batch_frames_out\":" << r.batch_frames_out
      << ",\"batch_packets_out\":" << r.batch_packets_out
      << ",\"batch_flush_size\":" << r.batch_flush_size
      << ",\"batch_flush_deadline\":" << r.batch_flush_deadline
      << ",\"batch_flush_pressure\":" << r.batch_flush_pressure
      << ",\"batch_flush_eager\":" << r.batch_flush_eager
      << ",\"batch_frames_in\":" << r.batch_frames_in
      << ",\"batch_packets_in\":" << r.batch_packets_in
      << ",\"batch_frames_rejected\":" << r.batch_frames_rejected
      << ",\"inbox_depth\":" << r.inbox_depth
      << ",\"sync_depth\":" << r.sync_depth
      << ",\"fc_inflight_peak\":" << r.fc_inflight_peak
      << ",\"fc_pending_depth\":" << r.fc_pending_depth
      << ",\"exec_workers\":" << r.exec_workers
      << ",\"exec_queue_depth\":" << r.exec_queue_depth
      << ",\"exec_queue_peak\":" << r.exec_queue_peak
      << ",\"heartbeat_rtt_ns\":" << r.heartbeat_rtt_ns
      << ",\"net_connections\":" << r.net_connections
      << ",\"net_send_queue_peak\":" << r.net_send_queue_peak
      << ",\"net_threads\":" << r.net_threads
      << ",\"prio_drained_control\":" << r.prio_drained_control
      << ",\"prio_drained_high\":" << r.prio_drained_high
      << ",\"prio_drained_normal\":" << r.prio_drained_normal
      << ",\"prio_drained_bulk\":" << r.prio_drained_bulk
      << ",\"topic_packets_pruned\":" << r.topic_packets_pruned
      << ",\"tenant_sends_throttled\":" << r.tenant_sends_throttled
      << ",\"tenant_packets_shed\":" << r.tenant_packets_shed
      << ",\"reconfig_ops\":" << r.reconfig_ops
      << ",\"reconfig_ops_failed\":" << r.reconfig_ops_failed
      << ",\"reconfig_joins\":" << r.reconfig_joins
      << ",\"reconfig_detaches\":" << r.reconfig_detaches
      << ",\"reconfig_moves\":" << r.reconfig_moves
      << ",\"reconfig_splits\":" << r.reconfig_splits
      << ",\"reconfig_merges\":" << r.reconfig_merges
      << ",\"fc_weighted_grants\":" << r.fc_weighted_grants
      << ",\"filter_latency_hist\":[";
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
    if (b != 0) out << ',';
    out << r.filter_latency_hist[b];
  }
  out << "],\"batch_ppf_hist\":[";
  for (std::size_t b = 0; b < kBatchBuckets; ++b) {
    if (b != 0) out << ',';
    out << r.batch_ppf_hist[b];
  }
  out << "],\"tenants\":[";
  for (std::size_t i = 0; i < r.tenants.size(); ++i) {
    const TenantTelemetry& t = r.tenants[i];
    if (i != 0) out << ',';
    out << "{\"name\":";
    json_string(out, t.name);
    out << ",\"packets\":" << t.packets << ",\"bytes\":" << t.bytes
        << ",\"sends_throttled\":" << t.sends_throttled
        << ",\"packets_shed\":" << t.packets_shed << '}';
  }
  out << "]}";
}

void json_summary(std::ostringstream& out, const char* name, const Summary& s) {
  out << '"' << name << "\":{\"count\":" << s.count << ",\"mean\":" << s.mean
      << ",\"p50\":" << s.p50 << ",\"p95\":" << s.p95 << ",\"min\":" << s.min
      << ",\"max\":" << s.max << '}';
}

}  // namespace

const NodeTelemetry* TreeMetricsSnapshot::find(std::uint32_t node) const noexcept {
  const auto it = std::lower_bound(
      nodes.begin(), nodes.end(), node,
      [](const NodeTelemetry& r, std::uint32_t id) { return r.node < id; });
  if (it == nodes.end() || it->node != node) return nullptr;
  return &*it;
}

std::string TreeMetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"nodes_reporting\":" << nodes_reporting << ",\"total\":";
  json_record(out, total);
  out << ',';
  json_summary(out, "filter_ms_per_node", filter_ms_per_node);
  out << ',';
  json_summary(out, "packets_up_per_node", packets_up_per_node);
  out << ',';
  json_summary(out, "inbox_depth_per_node", inbox_depth_per_node);
  out << ",\"nodes\":[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) out << ',';
    json_record(out, nodes[i]);
  }
  out << "]}";
  return out.str();
}

void TelemetryCollector::ingest(std::span<const std::byte> payload) {
  std::vector<NodeTelemetry> records;
  try {
    records = deserialize_records(payload);
  } catch (const CodecError&) {
    std::lock_guard lock(mutex_);
    ++malformed_;
    return;
  }
  ingest_records(records);
}

void TelemetryCollector::ingest_records(std::span<const NodeTelemetry> records) {
  const std::int64_t arrival = now_ns();
  std::lock_guard lock(mutex_);
  for (const NodeTelemetry& r : records) {
    auto [it, inserted] = nodes_.try_emplace(r.node, r, arrival);
    if (!inserted && r.seq >= it->second.first.seq) {
      it->second = {r, arrival};
    }
  }
}

void TelemetryCollector::freeze() {
  std::lock_guard lock(mutex_);
  if (!frozen_at_) frozen_at_ = now_ns();
}

std::int64_t TelemetryCollector::effective_now() const {
  return frozen_at_ ? *frozen_at_ : now_ns();
}

TreeMetricsSnapshot TelemetryCollector::snapshot() const {
  TreeMetricsSnapshot snap;
  {
    std::lock_guard lock(mutex_);
    const std::int64_t cutoff = effective_now() - age_out_ns_;
    for (const auto& [node, entry] : nodes_) {
      if (entry.second < cutoff) continue;  // stopped reporting: aged out
      snap.nodes.push_back(entry.first);    // map order == node-id order
    }
  }
  snap.nodes_reporting = snap.nodes.size();
  std::vector<double> filter_ms, packets_up, inbox_depth;
  filter_ms.reserve(snap.nodes.size());
  packets_up.reserve(snap.nodes.size());
  inbox_depth.reserve(snap.nodes.size());
  for (const NodeTelemetry& r : snap.nodes) {
    accumulate(snap.total, r);
    filter_ms.push_back(static_cast<double>(r.filter_ns) / 1e6);
    packets_up.push_back(static_cast<double>(r.packets_up));
    inbox_depth.push_back(static_cast<double>(r.inbox_depth));
  }
  snap.filter_ms_per_node = summarize(filter_ms);
  snap.packets_up_per_node = summarize(packets_up);
  snap.inbox_depth_per_node = summarize(inbox_depth);
  return snap;
}

std::uint64_t TelemetryCollector::malformed_payloads() const {
  std::lock_guard lock(mutex_);
  return malformed_;
}

}  // namespace tbon
