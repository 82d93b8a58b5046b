#include "net/wire.hpp"

#include "common/error.hpp"

namespace tbon::net {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw CodecError(what);
}

BinaryReader open_reader(std::span<const std::byte> bytes, std::size_t min_size,
                         const char* what) {
  require(bytes.size() >= min_size, what);
  return BinaryReader(bytes);
}

}  // namespace

std::optional<std::uint8_t> negotiate_version(std::uint8_t a_min, std::uint8_t a_max,
                                              std::uint8_t b_min, std::uint8_t b_max) {
  const std::uint8_t best = std::min(a_max, b_max);
  if (best < a_min || best < b_min) return std::nullopt;
  return best;
}

// ---- link handshake ---------------------------------------------------------

Bytes encode_link_hello(const LinkHello& hello) {
  BinaryWriter writer;
  writer.put(kLinkMagic);
  writer.put(hello.ver_min);
  writer.put(hello.ver_max);
  writer.put(hello.node);
  writer.put(hello.epoch);
  writer.put(hello.credit_window);
  return writer.take();
}

LinkHello decode_link_hello(std::span<const std::byte> bytes) {
  BinaryReader reader = open_reader(bytes, 18, "short link hello");
  require(reader.get<std::uint32_t>() == kLinkMagic, "bad link hello magic");
  LinkHello hello;
  hello.ver_min = reader.get<std::uint8_t>();
  hello.ver_max = reader.get<std::uint8_t>();
  hello.node = reader.get<std::uint32_t>();
  hello.epoch = reader.get<std::uint32_t>();
  hello.credit_window = reader.get<std::uint32_t>();
  require(hello.ver_min <= hello.ver_max, "inverted link hello version range");
  return hello;
}

Bytes encode_link_welcome(const LinkWelcome& welcome) {
  BinaryWriter writer;
  writer.put(kLinkMagic);
  writer.put(welcome.version);
  writer.put(welcome.node);
  writer.put(welcome.slot);
  writer.put(welcome.credit_window);
  return writer.take();
}

LinkWelcome decode_link_welcome(std::span<const std::byte> bytes) {
  BinaryReader reader = open_reader(bytes, 17, "short link welcome");
  require(reader.get<std::uint32_t>() == kLinkMagic, "bad link welcome magic");
  LinkWelcome welcome;
  welcome.version = reader.get<std::uint8_t>();
  welcome.node = reader.get<std::uint32_t>();
  welcome.slot = reader.get<std::uint32_t>();
  welcome.credit_window = reader.get<std::uint32_t>();
  return welcome;
}

// ---- bootstrap protocol -----------------------------------------------------

BootFrame boot_frame_type(std::span<const std::byte> bytes) {
  require(!bytes.empty(), "empty bootstrap frame");
  const auto tag = static_cast<std::uint8_t>(bytes[0]);
  require(tag >= 1 && tag <= 4, "unknown bootstrap frame type");
  return static_cast<BootFrame>(tag);
}

Bytes encode_boot_hello(const BootHello& hello) {
  BinaryWriter writer;
  writer.put(static_cast<std::uint8_t>(BootFrame::kHello));
  writer.put(kBootMagic);
  writer.put(hello.ver_min);
  writer.put(hello.ver_max);
  writer.put(hello.node);
  return writer.take();
}

BootHello decode_boot_hello(std::span<const std::byte> bytes) {
  BinaryReader reader = open_reader(bytes, 11, "short bootstrap hello");
  require(reader.get<std::uint8_t>() ==
              static_cast<std::uint8_t>(BootFrame::kHello),
          "not a bootstrap hello");
  require(reader.get<std::uint32_t>() == kBootMagic, "bad bootstrap magic");
  BootHello hello;
  hello.ver_min = reader.get<std::uint8_t>();
  hello.ver_max = reader.get<std::uint8_t>();
  hello.node = reader.get<std::uint32_t>();
  require(hello.ver_min <= hello.ver_max, "inverted bootstrap version range");
  return hello;
}

Bytes encode_node_config(const NodeConfig& config) {
  BinaryWriter writer;
  writer.put(static_cast<std::uint8_t>(BootFrame::kConfig));
  writer.put(config.version);
  config.topology.serialize(writer);
  writer.put(static_cast<std::uint8_t>(config.flow_control.enabled));
  writer.put(config.flow_control.capacity);
  writer.put(config.flow_control.low_watermark);
  writer.put(static_cast<std::uint8_t>(config.flow_control.policy));
  writer.put(static_cast<std::int32_t>(config.flow_control.block_timeout_ms));
  writer.put(static_cast<std::uint32_t>(config.execution.num_workers));
  writer.put(static_cast<std::uint64_t>(config.execution.stream_queue_capacity));
  config.batching.serialize(writer);
  writer.put(config.heartbeat.interval_ns);
  writer.put(config.heartbeat.timeout_ns);
  writer.put(static_cast<std::int32_t>(config.handshake_timeout_ms));
  writer.put_string(config.rendezvous);
  writer.put_string(config.parent);
  writer.put(static_cast<std::uint32_t>(config.fault_plan.faults.size()));
  for (const FaultSpec& fault : config.fault_plan.faults) {
    writer.put(fault.node);
    writer.put(static_cast<std::uint8_t>(fault.kind));
    writer.put(fault.after_packets);
    writer.put(fault.delay_ns);
  }
  return writer.take();
}

NodeConfig decode_node_config(std::span<const std::byte> bytes) {
  BinaryReader reader = open_reader(bytes, 2, "short node config");
  require(reader.get<std::uint8_t>() ==
              static_cast<std::uint8_t>(BootFrame::kConfig),
          "not a node config");
  NodeConfig config;
  config.version = reader.get<std::uint8_t>();
  // Topology::deserialize validates structure (parent links, fanout) and
  // throws TopologyError; surface it as the CodecError this decoder
  // promises so a corrupt frame is indistinguishable from a short one.
  try {
    config.topology = Topology::deserialize(reader);
  } catch (const CodecError&) {
    throw;
  } catch (const Error& error) {
    throw CodecError(std::string("bad topology in node config: ") + error.what());
  }
  config.flow_control.enabled = reader.get<std::uint8_t>() != 0;
  config.flow_control.capacity = reader.get<std::uint32_t>();
  config.flow_control.low_watermark = reader.get<std::uint32_t>();
  config.flow_control.policy =
      static_cast<FlowControlPolicy>(reader.get<std::uint8_t>());
  config.flow_control.block_timeout_ms = reader.get<std::int32_t>();
  config.execution.num_workers = reader.get<std::uint32_t>();
  config.execution.stream_queue_capacity =
      static_cast<std::size_t>(reader.get<std::uint64_t>());
  config.batching = BatchingOptions::deserialize(reader);
  config.heartbeat.interval_ns = reader.get<std::int64_t>();
  config.heartbeat.timeout_ns = reader.get<std::int64_t>();
  config.handshake_timeout_ms = reader.get<std::int32_t>();
  config.rendezvous = reader.get_string();
  config.parent = reader.get_string();
  const auto faults = reader.get<std::uint32_t>();
  require(faults <= kMaxConfigFaults, "too many faults in node config");
  for (std::uint32_t i = 0; i < faults; ++i) {
    FaultSpec fault;
    fault.node = reader.get<std::uint32_t>();
    const auto kind = reader.get<std::uint8_t>();
    require(kind <= static_cast<std::uint8_t>(FaultKind::kDelaySends),
            "unknown fault kind in node config");
    fault.kind = static_cast<FaultKind>(kind);
    fault.after_packets = reader.get<std::uint64_t>();
    fault.delay_ns = reader.get<std::int64_t>();
    config.fault_plan.faults.push_back(fault);
  }
  return config;
}

Bytes encode_boot_listen(const BootListen& listen) {
  BinaryWriter writer;
  writer.put(static_cast<std::uint8_t>(BootFrame::kListen));
  writer.put(listen.port);
  return writer.take();
}

BootListen decode_boot_listen(std::span<const std::byte> bytes) {
  BinaryReader reader = open_reader(bytes, 3, "short bootstrap listen");
  require(reader.get<std::uint8_t>() ==
              static_cast<std::uint8_t>(BootFrame::kListen),
          "not a bootstrap listen");
  BootListen listen;
  listen.port = reader.get<std::uint16_t>();
  return listen;
}

Bytes encode_boot_ready(const BootReady& ready) {
  BinaryWriter writer;
  writer.put(static_cast<std::uint8_t>(BootFrame::kReady));
  writer.put(static_cast<std::uint8_t>(ready.ok));
  writer.put_string(ready.error);
  return writer.take();
}

BootReady decode_boot_ready(std::span<const std::byte> bytes) {
  BinaryReader reader = open_reader(bytes, 2, "short bootstrap ready");
  require(reader.get<std::uint8_t>() ==
              static_cast<std::uint8_t>(BootFrame::kReady),
          "not a bootstrap ready");
  BootReady ready;
  ready.ok = reader.get<std::uint8_t>() != 0;
  ready.error = reader.get_string();
  return ready;
}

}  // namespace tbon::net
