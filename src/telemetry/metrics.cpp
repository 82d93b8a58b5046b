#include "telemetry/metrics.hpp"

#include <map>

#include "common/error.hpp"

namespace tbon {
namespace {

/// Upper bound on per-tenant entries in one record; a decoded count above
/// this is malformed (a hostile count must not pre-reserve unbounded memory).
constexpr std::uint32_t kMaxTenantEntries = 1u << 16;

void put_record(BinaryWriter& writer, const NodeTelemetry& r) {
  writer.put(r.node);
  writer.put(r.role);
  writer.put(r.seq);
#define TBON_PUT_METRIC(type, name, init, rule) writer.put(r.name);
  TBON_NODE_METRICS(TBON_PUT_METRIC)
#undef TBON_PUT_METRIC
#define TBON_PUT_HISTOGRAM(name, buckets) \
  for (const std::uint64_t count : r.name) writer.put(count);
  TBON_NODE_HISTOGRAMS(TBON_PUT_HISTOGRAM)
#undef TBON_PUT_HISTOGRAM
  writer.put(static_cast<std::uint32_t>(r.tenants.size()));
  for (const TenantTelemetry& t : r.tenants) {
    writer.put_string(t.name);
    writer.put(t.packets);
    writer.put(t.bytes);
    writer.put(t.sends_throttled);
    writer.put(t.packets_shed);
  }
}

NodeTelemetry get_record(BinaryReader& reader) {
  NodeTelemetry r;
  r.node = reader.get<std::uint32_t>();
  r.role = reader.get<std::uint8_t>();
  r.seq = reader.get<std::uint64_t>();
#define TBON_GET_METRIC(type, name, init, rule) r.name = reader.get<type>();
  TBON_NODE_METRICS(TBON_GET_METRIC)
#undef TBON_GET_METRIC
#define TBON_GET_HISTOGRAM(name, buckets) \
  for (std::uint64_t& count : r.name) count = reader.get<std::uint64_t>();
  TBON_NODE_HISTOGRAMS(TBON_GET_HISTOGRAM)
#undef TBON_GET_HISTOGRAM
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
  return r;
}

}  // namespace

Bytes serialize_records(std::span<const NodeTelemetry> records) {
  BinaryWriter writer;
  writer.put(kTelemetryWireVersion);
  writer.put(static_cast<std::uint32_t>(records.size()));
  for (const NodeTelemetry& r : records) put_record(writer, r);
  return writer.take();
}

std::vector<NodeTelemetry> deserialize_records(std::span<const std::byte> payload) {
  BinaryReader reader(payload);
  const auto version = reader.get<std::uint8_t>();
  if (version != kTelemetryWireVersion) {
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
