#include "telemetry/collector.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace tbon {
namespace {

template <class T>
T combine(MetricTotal rule, T total, T value) {
  return rule == MetricTotal::kMax ? std::max(total, value) : total + value;
}

void accumulate(NodeTelemetry& total, const NodeTelemetry& r) {
#define TBON_TOTAL_METRIC(type, name, init, rule) \
  total.name = combine(MetricTotal::rule, total.name, r.name);
  TBON_NODE_METRICS(TBON_TOTAL_METRIC)
#undef TBON_TOTAL_METRIC
#define TBON_TOTAL_HISTOGRAM(name, buckets) \
  for (std::size_t b = 0; b < buckets; ++b) total.name[b] += r.name[b];
  TBON_NODE_HISTOGRAMS(TBON_TOTAL_HISTOGRAM)
#undef TBON_TOTAL_HISTOGRAM
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
      << ",\"seq\":" << r.seq;
#define TBON_JSON_METRIC(type, name, init, rule) out << ",\"" #name "\":" << r.name;
  TBON_NODE_METRICS(TBON_JSON_METRIC)
#undef TBON_JSON_METRIC
#define TBON_JSON_HISTOGRAM(name, buckets)                           \
  out << ",\"" #name "\":[" << r.name[0];                            \
  for (std::size_t b = 1; b < buckets; ++b) out << ',' << r.name[b]; \
  out << ']';
  TBON_NODE_HISTOGRAMS(TBON_JSON_HISTOGRAM)
#undef TBON_JSON_HISTOGRAM
  out << ",\"tenants\":[";
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
