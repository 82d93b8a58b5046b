#include "core/socket_pump.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/coalesce.hpp"
#include "core/flow_control.hpp"
#include "core/protocol.hpp"

namespace tbon {

std::optional<Envelope> decode_channel_frame(Bytes frame, const ChannelOptions& channel,
                                             MetricsRegistry* metrics) {
  if (is_batch_frame(frame)) {
    std::vector<PacketPtr> packets;
    try {
      packets = decode_batch_frame(std::move(frame));
    } catch (const CodecError& error) {
      TBON_DEBUG("dropping malformed batch frame: " << error.what());
      if (metrics != nullptr) {
        metrics->batch_frames_rejected.fetch_add(1, std::memory_order_relaxed);
      }
      return std::nullopt;
    }
    if (metrics != nullptr) {
      metrics->batch_frames_in.fetch_add(1, std::memory_order_relaxed);
      metrics->batch_packets_in.fetch_add(packets.size(), std::memory_order_relaxed);
    }
    return Envelope{channel.origin, channel.slot, nullptr,
                    std::make_shared<const std::vector<PacketPtr>>(std::move(packets))};
  }
  // Promote the frame to a refcounted buffer and let the packet alias it: no
  // payload copy here, and none later if the packet is only routed onward
  // (the frame is relayed verbatim).
  auto buffer = std::make_shared<const Buffer>(std::move(frame));
  PacketPtr packet = Packet::deserialize_view(BufferView(buffer, 0, buffer->size()));
  if (packet->stream_id() != kControlStream || packet->tag() != kTagCredit) {
    return Envelope{channel.origin, channel.slot, std::move(packet)};
  }
  try {
    const std::uint32_t count = credit_packet_count(*packet);
    const std::uint32_t channel_id = credit_packet_channel(*packet);
    if (!channel.credits.gate || channel_id != channel.credits.channel_id) {
      throw CodecError("stale or unsinkable credit grant");
    }
    channel.credits.gate->grant(count);
  } catch (const std::exception& error) {
    // Never let a hostile grant tear down the channel.
    TBON_DEBUG("rejecting credit grant: " << error.what());
    if (metrics != nullptr) {
      metrics->fc_invalid_grants.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return std::nullopt;
}

}  // namespace tbon
